"""Softirqs and tasklets.

Linux defers most interrupt work to *softirqs* that run at interrupt exit.
Two details matter for the paper's analysis and are modeled here:

* softirqs of the same type may run concurrently on different CPUs, but
  *tasklets* (``net_rx_action`` / ``net_tx_action`` in the paper's
  terminology) of the same type are serialized system-wide (paper footnote 5);
* a nested interrupt never starts softirq processing if the CPU is already
  inside a softirq — the pending vector drains when the outer softirq
  finishes (this is what makes nested-event accounting non-trivial).
"""

from __future__ import annotations

from enum import IntEnum
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.simkernel.cpu import CPU, Frame, FrameKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.node import ComputeNode


class Vec(IntEnum):
    """Softirq vectors, in Linux priority order (lower runs first)."""

    TIMER = 0      # run_timer_softirq
    NET_TX = 1     # net_tx_action (tasklet semantics)
    NET_RX = 2     # net_rx_action (tasklet semantics)
    SCHED = 3      # run_rebalance_domains
    RCU = 4        # rcu_process_callbacks


#: Vectors with tasklet serialization semantics.
TASKLET_VECS = frozenset((Vec.NET_TX, Vec.NET_RX))


class SoftirqHandler:
    """One vector's behaviour: how long it runs and what happens after."""

    def __init__(
        self,
        event: int,
        duration: Callable[[], int],
        post: Optional[Callable[[CPU], None]] = None,
    ) -> None:
        #: Paired trace event id for this vector's frame.
        self.event = event
        #: Callable returning a sampled duration in nanoseconds.
        self.duration = duration
        #: Called after the frame exits (e.g. net_rx wakes rpciod).
        self.post = post


class SoftirqDispatcher:
    """Per-CPU pending vectors plus global tasklet serialization."""

    def __init__(self, node: "ComputeNode") -> None:
        self.node = node
        ncpus = node.config.ncpus
        self._pending: List[List[bool]] = [
            [False] * len(Vec) for _ in range(ncpus)
        ]
        self._handlers: Dict[int, SoftirqHandler] = {}
        #: Tasklet locks: vec -> CPU index currently running it, or None.
        self._tasklet_owner: Dict[int, Optional[int]] = {
            int(v): None for v in TASKLET_VECS
        }
        #: Count of serialization conflicts (a tasklet found busy elsewhere).
        self.tasklet_conflicts = 0
        #: Per-vector execution counters, for tests and quick stats.
        self.run_counts: Dict[int, int] = {int(v): 0 for v in Vec}

    def register(self, vec: Vec, handler: SoftirqHandler) -> None:
        self._handlers[int(vec)] = handler

    # ------------------------------------------------------------------
    def raise_vec(self, cpu_index: int, vec: Vec) -> None:
        """Mark a vector pending on a CPU (like ``raise_softirq``)."""
        self._pending[cpu_index][int(vec)] = True

    def run(self, cpu: CPU) -> bool:
        """Start softirq processing on a CPU if allowed.

        Called at interrupt exit and by NAPI-style direct kicks.  Returns
        True if a softirq frame was pushed.  Processing is skipped when the
        CPU is already inside a softirq/tasklet frame (the Linux
        ``in_interrupt()`` check); the pending vector will drain when the
        current one finishes.
        """
        if self._in_softirq(cpu):
            return False
        return self._push_next(cpu)

    def kick(self, cpu: CPU) -> bool:
        """Force processing to start even with no interrupt context.

        Models NAPI polling / ``ksoftirqd`` picking up a raised vector: if
        the CPU is quiescent (running its context frame), softirq processing
        begins immediately, pausing user code.
        """
        top = cpu.top
        if top is None or not top.running:
            return False
        if top.kind not in (FrameKind.USER, FrameKind.IDLE, FrameKind.DAEMON):
            return False
        if self._in_softirq(cpu):
            return False
        return self._push_next(cpu)

    # ------------------------------------------------------------------
    def _in_softirq(self, cpu: CPU) -> bool:
        softirq_events = {h.event for h in self._handlers.values()}
        return any(
            f.kind == FrameKind.KACT and f.event in softirq_events
            for f in cpu.stack
        )

    def _push_next(self, cpu: CPU) -> bool:
        pending = self._pending[cpu.index]
        for vec in sorted(self._handlers):
            if not pending[vec]:
                continue
            if vec in self._tasklet_owner:
                owner = self._tasklet_owner[vec]
                if owner is not None and owner != cpu.index:
                    # Tasklet of this type is running on another CPU: it
                    # stays pending here and is retried on the next cycle.
                    self.tasklet_conflicts += 1
                    continue
            pending[vec] = False
            handler = self._handlers[vec]
            if vec in self._tasklet_owner:
                self._tasklet_owner[vec] = cpu.index
            self.run_counts[vec] += 1
            frame = Frame(
                FrameKind.KACT,
                event=handler.event,
                name=f"softirq/{Vec(vec).name.lower()}",
                remaining=max(1, handler.duration()),
                on_exit=self._make_on_exit(cpu, vec, handler),
            )
            cpu.push(frame)
            return True
        return False

    def _make_on_exit(
        self, cpu: CPU, vec: int, handler: SoftirqHandler
    ) -> Callable[[], None]:
        def on_exit() -> None:
            if vec in self._tasklet_owner:
                self._tasklet_owner[vec] = None
            if handler.post is not None:
                handler.post(cpu)
            # Drain remaining pending vectors (including ones raised by
            # nested interrupts while we ran).
            self._push_next(cpu)

        return on_exit
