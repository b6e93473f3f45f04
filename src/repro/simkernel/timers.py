"""The periodic timer tick and software timers.

Every CPU takes a periodic timer interrupt (HZ per second, 100 in the
paper's configuration — Tables V/VI report exactly 100 ev/sec).  The top
half accounts process time; the paper's *bottom half*, ``run_timer_softirq``,
runs expired software timers and is a distinct — and often comparably
expensive — noise event, which is precisely the distinction the paper's
methodology surfaces (Figure 1d).
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Callable, Dict, List, Tuple, TYPE_CHECKING

from repro.simkernel.cpu import CPU
from repro.simkernel.softirq import SoftirqHandler, Vec
from repro.tracing.events import Ev

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.node import ComputeNode


class SoftTimer:
    """A software timer (like ``struct timer_list``).

    Wheels hold ``(expires, timer_id, timer)`` entries, so ``heapq`` orders
    them by two int compares in C; ``timer_id`` is unique, so a timer is
    never compared."""

    __slots__ = ("timer_id", "expires", "callback", "period_ns", "cpu", "cancelled")

    def __init__(
        self,
        timer_id: int,
        expires: int,
        callback: Callable[[], None],
        period_ns: int,
        cpu: int,
    ) -> None:
        self.timer_id = timer_id
        self.expires = expires
        self.callback = callback
        self.period_ns = period_ns
        self.cpu = cpu
        self.cancelled = False


class TimerSubsystem:
    """Per-CPU periodic tick + software-timer wheel."""

    def __init__(self, node: "ComputeNode") -> None:
        self.node = node
        self.tick_ns = 1_000_000_000 // node.config.hz
        #: Per-CPU software timer heaps of (expires, timer_id, timer).
        self._wheels: List[List[Tuple[int, int, SoftTimer]]] = [
            [] for _ in range(node.config.ncpus)
        ]
        self._next_timer_id = 1
        self._timers: Dict[int, SoftTimer] = {}
        self.ticks = 0
        self.skipped_idle_ticks = 0
        self.hrtimer_fires = 0
        self._rcu_every = node.config.rcu_every_ticks

    # ------------------------------------------------------------------
    # Software timers
    # ------------------------------------------------------------------
    def add_timer(
        self,
        delay_ns: int,
        callback: Callable[[], None],
        period_ns: int = 0,
        cpu: int = 0,
    ) -> int:
        """Arm a software timer; returns its id.  Fires inside
        ``run_timer_softirq`` on the owning CPU, like the kernel's wheel."""
        if delay_ns < 0 or period_ns < 0:
            raise ValueError("delays must be non-negative")
        timer = SoftTimer(
            self._next_timer_id,
            self.node.engine.now + delay_ns,
            callback,
            period_ns,
            cpu,
        )
        self._next_timer_id += 1
        self._timers[timer.timer_id] = timer
        heapq.heappush(
            self._wheels[cpu], (timer.expires, timer.timer_id, timer)
        )
        return timer.timer_id

    def cancel_timer(self, timer_id: int) -> None:
        timer = self._timers.pop(timer_id, None)
        if timer is not None:
            timer.cancelled = True

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Register the TIMER softirq handler and start per-CPU ticks.

        Ticks are staggered across CPUs (as on real hardware, where per-CPU
        APIC timers are not phase-aligned) so all eight interrupts do not
        land on the same nanosecond.
        """
        node = self.node
        models = node.config.models
        node.softirq.register(
            Vec.TIMER,
            SoftirqHandler(
                event=Ev.SOFTIRQ_TIMER,
                duration=lambda: models.timer_softirq.sample(node.rng_for("timer")),
                post=self._run_expired,
            ),
        )
        node.softirq.register(
            Vec.RCU,
            SoftirqHandler(
                event=Ev.SOFTIRQ_RCU,
                duration=lambda: models.rcu.sample(node.rng_for("timer")),
            ),
        )
        stagger = self.tick_ns // (node.config.ncpus + 1)
        for cpu in node.cpus:
            node.engine.schedule(
                node.engine.now + self.tick_ns + cpu.index * stagger,
                partial(self._tick, cpu),
            )

    def _tick(self, cpu: CPU) -> None:
        node = self.node
        if node.config.nohz_idle and self._cpu_is_idle(cpu):
            # Tickless idle: no interrupt fires; re-arm for the next period
            # (a real dyntick kernel programs the next pending deadline —
            # our software timers are checked on the next busy tick).
            self.skipped_idle_ticks += 1
            node.engine.schedule(
                node.engine.now + self.tick_ns, partial(self._tick, cpu)
            )
            return
        self.ticks += 1
        rng = node.rng_for("timer")
        vecs = [Vec.TIMER]
        if self._rcu_every and self.ticks % self._rcu_every == 0:
            vecs.append(Vec.RCU)
        if node.balancer.due(cpu, node.engine.now):
            vecs.append(Vec.SCHED)
        node.irq.deliver(
            cpu,
            Ev.IRQ_TIMER,
            node.config.models.timer_irq.sample(rng),
            raise_vecs=vecs,
            post=node.scheduler.scheduler_tick,
        )
        node.engine.schedule(node.engine.now + self.tick_ns, partial(self._tick, cpu))

    # ------------------------------------------------------------------
    # High-resolution timers (paper §IV-E: "with the introduction of high
    # resolution timers in Linux 2.6.18, the local timer may raise an
    # interrupt any time a high resolution timer expires")
    # ------------------------------------------------------------------
    def add_hrtimer(
        self,
        delay_ns: int,
        callback: Callable[[], None],
        cpu: int = 0,
        period_ns: int = 0,
    ) -> None:
        """Arm a high-resolution timer: fires as its *own* timer interrupt
        at the exact deadline (not at wheel granularity).  The callback runs
        at interrupt exit, in interrupt context."""
        if delay_ns <= 0 or period_ns < 0:
            raise ValueError("hrtimer delay must be positive")
        node = self.node
        target = node.cpus[cpu]

        def fire() -> None:
            self.hrtimer_fires += 1
            rng = node.rng_for("timer")

            def post(_: CPU) -> None:
                target.emit_point(Ev.TIMER_EXPIRE, target.context_pid(), 0)
                callback()
                if period_ns:
                    node.engine.schedule_after(period_ns, fire)

            node.irq.deliver(
                target,
                Ev.IRQ_TIMER,
                node.config.models.timer_irq.sample(rng),
                raise_vecs=[Vec.TIMER],
                post=post,
            )

        node.engine.schedule_after(delay_ns, fire)

    @staticmethod
    def _cpu_is_idle(cpu: CPU) -> bool:
        from repro.simkernel.cpu import FrameKind

        return (
            len(cpu.stack) == 1
            and cpu.stack[0].kind == FrameKind.IDLE
            and cpu.stack[0].running
        )

    # ------------------------------------------------------------------
    def _run_expired(self, cpu: CPU) -> None:
        """Fire expired software timers (inside run_timer_softirq)."""
        node = self.node
        wheel = self._wheels[cpu.index]
        now = node.engine.now
        while wheel and wheel[0][0] <= now:
            _, timer_id, timer = heapq.heappop(wheel)
            if timer.cancelled:
                continue
            cpu.emit_point(Ev.TIMER_EXPIRE, cpu.context_pid(), timer_id)
            if timer.period_ns:
                # A periodic re-arm pushes a fresh entry.
                timer.expires = now + timer.period_ns
                heapq.heappush(wheel, (timer.expires, timer_id, timer))
            else:
                self._timers.pop(timer.timer_id, None)
            timer.callback()
