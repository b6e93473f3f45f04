"""The simulated compute node: assembly of all kernel subsystems.

:class:`ComputeNode` is the main substrate entry point.  Workloads spawn
ranks (one pinned per core, as in the paper's experiments: "8 MPI tasks, one
task per core"), daemons get activity drivers, a tracer may attach a sink,
and :meth:`ComputeNode.run` advances simulated time.

Rank *programs* are cooperative state machines: whenever a rank reaches a
program point (its current compute burst ends), the node calls
``program.step(node, task)``, which must continue the rank via exactly one of
the continuation APIs (:meth:`continue_compute`, an NFS operation, an MPI
blocking call, ...).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from repro.simkernel.balancer import LoadBalancer
from repro.simkernel.config import NodeConfig
from repro.simkernel.cpu import CPU, Frame, FrameKind, KernelHooks
from repro.simkernel.daemons import DaemonDriver
from repro.simkernel.distributions import DurationModel
from repro.simkernel.engine import Engine
from repro.simkernel.interrupts import InterruptController
from repro.simkernel.memory import MemoryManager
from repro.simkernel.network import NetworkStack
from repro.simkernel.scheduler import Scheduler
from repro.simkernel.softirq import SoftirqDispatcher
from repro.simkernel.task import Task, TaskKind, make_idle_task
from repro.simkernel.timers import TimerSubsystem
from repro.tracing.events import Ev, NullSink, TraceSink
from repro.util.rng import spawn_rngs

_RNG_STREAMS = ("timer", "sched", "net", "memory", "daemons", "workload")


class RankProgram:
    """Base class for rank programs (cooperative state machines)."""

    def step(self, node: "ComputeNode", task: Task) -> None:
        """Called at every program point; must continue the rank."""
        raise NotImplementedError


class ComputeNode(KernelHooks):
    """An 8-core (by default) Linux compute node simulation."""

    def __init__(self, config: Optional[NodeConfig] = None) -> None:
        self.config = config if config is not None else NodeConfig()
        self.engine = Engine(self.config.seed)
        self.sink: TraceSink = NullSink()
        self._rngs = dict(
            zip(_RNG_STREAMS, spawn_rngs(self.config.seed, len(_RNG_STREAMS)))
        )

        self.cpus: List[CPU] = [
            CPU(i, self.engine, self) for i in range(self.config.ncpus)
        ]
        self.idle_tasks: List[Task] = []
        for cpu in self.cpus:
            idle = make_idle_task(cpu.index)
            self.idle_tasks.append(idle)
            cpu.set_initial_context(
                Frame(FrameKind.IDLE, task=idle, name=idle.name)
            )

        self.scheduler = Scheduler(self)
        self.softirq = SoftirqDispatcher(self)
        self.irq = InterruptController(self)
        self.timers = TimerSubsystem(self)
        self.balancer = LoadBalancer(self)
        self.mm = MemoryManager(self)
        self.net = NetworkStack(self)

        self.tasks: Dict[int, Task] = {}
        self._programs: Dict[int, RankProgram] = {}
        self.drivers: List[DaemonDriver] = []
        self._next_daemon_pid = 100
        self._next_rank_pid = 1000
        self._started = False

        #: Per-CPU rpciod kernel daemons (Linux runs one per CPU).
        self.rpciod: List[Task] = [
            self._make_daemon_task(f"rpciod/{i}", TaskKind.KDAEMON, i)
            for i in range(self.config.ncpus)
        ]

    # ------------------------------------------------------------------
    # Construction API
    # ------------------------------------------------------------------
    def rng_for(self, stream: str):
        """Named deterministic RNG stream."""
        return self._rngs[stream]

    def spawn_rank(self, name: str, cpu_index: int, program: RankProgram) -> Task:
        """Create an application rank pinned to a CPU."""
        if self._started:
            raise RuntimeError("cannot spawn ranks after the node started")
        if not 0 <= cpu_index < self.config.ncpus:
            raise ValueError("cpu index out of range")
        task = Task(
            pid=self._next_rank_pid,
            name=name,
            kind=TaskKind.RANK,
            prio=100,
            home_cpu=cpu_index,
        )
        self._next_rank_pid += 1
        self.tasks[task.pid] = task
        self._programs[task.pid] = program
        faults = self.mm.register_task(task)
        self.mm.set_fault_model(task, self.config.models.page_fault)
        frame = Frame(
            FrameKind.USER,
            task=task,
            name=name,
            remaining=1,  # immediately reaches the first program point
            on_pause=faults.cancel,
            on_resume=faults.arm,
        )
        task.saved_frame = frame
        return task

    def add_daemon(
        self,
        name: str,
        kind: TaskKind,
        rate_per_sec: float,
        service: DurationModel,
        cpu: Union[int, str] = "random",
        via_timer: bool = False,
    ) -> Task:
        """Create a daemon with a Poisson activity driver.

        ``via_timer=True`` wakes it from software timers inside
        ``run_timer_softirq`` (the Figure 2b mechanism)."""
        prio = 50
        if kind == TaskKind.UDAEMON and self.config.deprioritize_user_daemons:
            # Jones et al.-style policy: user daemons below application
            # ranks — they run only on otherwise-idle CPUs.
            prio = 150
        task = self._make_daemon_task(name, kind, home_cpu=0, prio=prio)
        driver = DaemonDriver(
            self, task, rate_per_sec, service, cpu, via_timer=via_timer
        )
        self.drivers.append(driver)
        return task

    def _make_daemon_task(
        self, name: str, kind: TaskKind, home_cpu: int, prio: int = 50
    ) -> Task:
        task = Task(
            pid=self._next_daemon_pid,
            name=name,
            kind=kind,
            prio=prio,
            home_cpu=home_cpu,
        )
        self._next_daemon_pid += 1
        self.tasks[task.pid] = task
        return task

    def attach_sink(self, sink: TraceSink) -> None:
        """Attach a trace sink (the lttng-noise tracer, or a test sink)."""
        self.sink = sink

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.timers.start()
        self.balancer.start()
        self.net.start()
        for driver in self.drivers:
            driver.start()
        for task in list(self.tasks.values()):
            if task.is_application and task.saved_frame is not None:
                self.scheduler.start_rank(task, task.saved_frame)

    def run(self, duration_ns: int) -> None:
        """Advance the simulation by ``duration_ns``."""
        if duration_ns < 0:
            raise ValueError("duration must be non-negative")
        self.start()
        self.engine.run_until(self.engine.now + duration_ns)

    # ------------------------------------------------------------------
    # Continuation APIs for rank programs
    # ------------------------------------------------------------------
    def continue_compute(self, task: Task, duration_ns: int) -> None:
        """Run the rank's next user-mode compute burst."""
        if duration_ns <= 0:
            raise ValueError("burst duration must be positive")
        if task.cpu is None:
            raise RuntimeError(f"{task.name}: not on a CPU")
        cpu = self.cpus[task.cpu]
        frame = cpu.stack[0]
        if frame.task is not task:
            raise RuntimeError(f"{task.name}: does not own cpu{cpu.index}")
        total = duration_ns + task.pending_warmup_ns
        task.pending_warmup_ns = 0
        frame.remaining = total
        if cpu.top is frame and not frame.running:
            cpu._resume(frame)

    def push_syscall(self, cpu: CPU, nr: int, on_exit: Callable[[], None]) -> None:
        """Enter the kernel through a system call."""
        duration = self.config.models.syscall.sample(self.rng_for("net"))
        cpu.push(
            Frame(
                FrameKind.KACT,
                event=Ev.SYSCALL,
                name=f"syscall/{nr}",
                remaining=max(1, duration),
                arg=nr,
                on_exit=on_exit,
            )
        )

    def block_rank(self, task: Task, on_wake: Optional[Callable[[], None]] = None) -> None:
        """Block a rank at a program point (e.g. an MPI blocking call)."""
        if task.cpu is None:
            raise RuntimeError(f"{task.name}: not on a CPU")
        if on_wake is not None:
            def resumed() -> None:
                task.on_scheduled = None
                on_wake()

            task.on_scheduled = resumed
        self.scheduler.block_current(self.cpus[task.cpu], task)

    def wake_rank(self, task: Task, waker: Optional[Task] = None) -> None:
        waker_cpu = None
        if waker is not None and waker.cpu is not None:
            waker_cpu = self.cpus[waker.cpu]
        self.scheduler.wake_task(task, waker_cpu=waker_cpu)

    def emit_marker(self, task: Task, arg: int) -> None:
        """Emit a workload marker point event (phase changes, etc.)."""
        cpu_index = task.cpu if task.cpu is not None else task.home_cpu
        self.cpus[cpu_index].emit_point(Ev.MARKER, task.pid, arg)

    # ------------------------------------------------------------------
    # KernelHooks implementation (called by CPUs)
    # ------------------------------------------------------------------
    def resched(self, cpu: CPU) -> None:
        self.scheduler.resched(cpu)

    def context_done(self, cpu: CPU, frame: Frame) -> None:
        task = frame.task
        if task is None:
            raise RuntimeError("context frame without a task completed")
        if task.is_daemon:
            self.scheduler.daemon_done(cpu, frame)
            return
        program = self._programs.get(task.pid)
        if program is None:
            raise RuntimeError(f"rank {task.name} has no program")
        program.step(self, task)
        if cpu.top is frame and not frame.running and frame.remaining == 0:
            raise RuntimeError(
                f"program for {task.name} made no progress at a program point"
            )

    def cpu_went_empty(self, cpu: CPU) -> None:
        raise RuntimeError(f"cpu{cpu.index} ran out of frames")

    # ------------------------------------------------------------------
    # Quick stats
    # ------------------------------------------------------------------
    def total_kernel_ns(self) -> int:
        return sum(cpu.kernel_ns for cpu in self.cpus)
