"""Per-CPU execution model: a stack of frames.

A CPU always executes the frame at the top of its stack.  The bottom frame is
the *context* — a task's user-mode computation or the idle loop — and kernel
activities (interrupts, exceptions, softirqs, the scheduler, daemon bursts)
push frames on top of it.  Pushing pauses the frame below; popping resumes
it.  This directly produces the nested-event structure the paper's offline
analysis must untangle ("the local timer may raise an interrupt while the
kernel is performing a tasklet").

Trace records are emitted at every frame entry/exit, and the cost of writing
each record is *added to the simulated duration* of the enclosing activity,
so enabling tracing perturbs the execution — which is what the paper's
overhead experiment quantifies.
"""

from __future__ import annotations

from enum import IntEnum
from functools import partial
from typing import Callable, List, Optional

from repro.simkernel.engine import Engine, Handle, cancel
from repro.simkernel.task import IDLE_PID, Task
from repro.tracing.events import FIRST_POINT_EVENT, Flag, TraceSink


class FrameKind(IntEnum):
    IDLE = 0    # the idle loop (open-ended)
    USER = 1    # a task's user-mode compute burst (finite)
    KACT = 2    # a kernel activity with paired ENTRY/EXIT trace records
    DAEMON = 3  # a daemon's service burst (context switched in, finite)


# Hot-path aliases: an enum member lookup costs about ten times a global
# read on Python 3.11, and these are read once or more per event.

#: Frame kinds whose run time is kernel time (``CPU.kernel_ns``).
_KERNEL_KINDS = (FrameKind.KACT, FrameKind.DAEMON)
#: Context frames that end at a program point instead of being popped.
_PROGRAM_POINT_KINDS = (FrameKind.USER, FrameKind.DAEMON)
#: Context frames the scheduler may switch away from on drain.
_RESCHED_KINDS = (FrameKind.USER, FrameKind.IDLE)

_ENTRY = int(Flag.ENTRY)
_EXIT = int(Flag.EXIT)
_POINT = int(Flag.POINT)


class Frame:
    """One stack entry on a CPU."""

    __slots__ = (
        "kind",
        "event",
        "name",
        "task",
        "arg",
        "remaining",
        "resumed_at",
        "completion",
        "running",
        "on_exit",
        "on_pause",
        "on_resume",
    )

    def __init__(
        self,
        kind: FrameKind,
        *,
        event: Optional[int] = None,
        name: str = "",
        task: Optional[Task] = None,
        arg: int = 0,
        remaining: Optional[int] = None,
        on_exit: Optional[Callable[[], None]] = None,
        on_pause: Optional[Callable[[], None]] = None,
        on_resume: Optional[Callable[[], None]] = None,
    ) -> None:
        self.kind = kind
        #: Paired trace event id (``Ev``), or None for frames whose
        #: boundaries are traced by point events (daemon bursts) or not at
        #: all (user/idle).
        self.event = event
        self.name = name
        #: The task this frame belongs to, if any.  Trace records emitted
        #: while this frame is topmost-with-a-task are attributed to it.
        self.task = task
        self.arg = arg
        #: Nanoseconds of execution left; None for open-ended frames (idle).
        self.remaining = remaining
        self.resumed_at = 0
        self.completion: Optional[Handle] = None
        self.running = False
        self.on_exit = on_exit
        self.on_pause = on_pause
        self.on_resume = on_resume

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Frame {self.kind.name} {self.name!r} remaining={self.remaining} "
            f"running={self.running}>"
        )


class CPU:
    """One processor of the simulated node."""

    def __init__(self, index: int, engine: Engine, kernel: "KernelHooks") -> None:
        self.index = index
        self.engine = engine
        self.kernel = kernel
        self.stack: List[Frame] = []
        #: Set when the scheduler wants to run something as soon as the
        #: kernel frames drain back to the context frame.
        self.need_resched = False
        #: Total nanoseconds this CPU spent above the context frame (all
        #: kernel activity + daemon bursts); bookkeeping for quick stats.
        self.kernel_ns = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def bottom(self) -> Optional[Frame]:
        return self.stack[0] if self.stack else None

    @property
    def top(self) -> Optional[Frame]:
        return self.stack[-1] if self.stack else None

    def context_pid(self) -> int:
        """Pid trace records are attributed to: the topmost frame's task
        that has one, else the idle pid."""
        for frame in reversed(self.stack):
            task = frame.task
            if task is not None:
                return task.pid
        return IDLE_PID

    # ------------------------------------------------------------------
    # Trace emission
    # ------------------------------------------------------------------
    def emit_point(self, event: int, pid: int, arg: int) -> None:
        """Emit a point record; charge its cost to the running frame."""
        sink = self.kernel.sink
        sink.emit(self.engine.now, event, self.index, _POINT, pid, arg)
        cost = sink.cost_ns(event)
        if cost and self.stack:
            top = self.stack[-1]
            if top.running and top.remaining is not None:
                self._extend_top(top, cost)

    def _extend_top(self, top: Frame, extra_ns: int) -> None:
        # While a frame runs, ``remaining`` stays fixed and its completion is
        # scheduled at resumed_at + remaining, so extending is a reschedule.
        if top.completion is not None:
            cancel(top.completion)
        top.remaining += extra_ns  # type: ignore[operator]
        top.completion = self.engine.schedule(
            top.resumed_at + top.remaining, partial(self._complete, top)
        )

    # ------------------------------------------------------------------
    # Frame stack operations
    # ------------------------------------------------------------------
    def push(self, frame: Frame) -> None:
        """Push a frame; pauses whatever was running."""
        now = self.engine.now
        stack = self.stack
        if stack:
            top = stack[-1]
            if top.running:
                self._pause(top)
        sink = self.kernel.sink
        event = frame.event
        paired = event is not None and event < FIRST_POINT_EVENT
        if paired:
            # Entry + exit records each cost one write; fold both into the
            # activity's duration up front.
            if frame.remaining is None:
                raise ValueError("paired kernel activities must be finite")
            frame.remaining += 2 * sink.cost_ns(event)
        stack.append(frame)
        if paired:
            sink.emit(now, event, self.index, _ENTRY, self.context_pid(), frame.arg)
        self._resume(frame)

    def _pause(self, frame: Frame) -> None:
        completion = frame.completion
        if completion is not None:
            cancel(completion)
            frame.completion = None
        ran = self.engine.now - frame.resumed_at
        remaining = frame.remaining
        if remaining is not None:
            remaining -= ran
            frame.remaining = remaining if remaining > 0 else 0
        self._account(frame, ran)
        frame.running = False
        if frame.on_pause is not None:
            frame.on_pause()

    def _resume(self, frame: Frame) -> None:
        engine = self.engine
        now = engine.now
        frame.resumed_at = now
        frame.running = True
        remaining = frame.remaining
        if remaining is not None:
            frame.completion = engine.schedule(
                now + remaining, partial(self._complete, frame)
            )
        if frame.on_resume is not None:
            frame.on_resume()

    def _account(self, frame: Frame, ran_ns: int) -> None:
        """Book actual run time (excludes paused time) for stats."""
        if ran_ns <= 0:
            return
        if frame.kind in _KERNEL_KINDS:
            self.kernel_ns += ran_ns
        if frame.task is not None:
            frame.task.total_cpu_ns += ran_ns

    def _complete(self, frame: Frame) -> None:
        stack = self.stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError(
                f"cpu{self.index}: completion fired for non-top frame {frame!r}"
            )
        now = self.engine.now
        self._account(frame, now - frame.resumed_at)
        frame.running = False
        frame.completion = None
        frame.remaining = 0
        if frame.kind in _PROGRAM_POINT_KINDS:
            # Context frames are not popped on completion: reaching the end
            # of a compute burst / daemon service is a *program point* — the
            # owner decides what happens next (continue, syscall, block,
            # context switch).
            self.kernel.context_done(self, frame)
            return
        event = frame.event
        if event is not None and event < FIRST_POINT_EVENT:
            # Exit record is attributed to the same context as the entry.
            self.kernel.sink.emit(
                now, event, self.index, _EXIT, self.context_pid(), frame.arg
            )
        stack.pop()
        if frame.on_exit is not None:
            depth_before = len(stack)
            frame.on_exit()
            if len(stack) > depth_before:
                # on_exit pushed follow-on work (softirq, scheduler chain,
                # ...); it is already running.
                return
        self._after_drain()

    def _after_drain(self) -> None:
        """Resume the new top frame, giving the scheduler a shot first."""
        stack = self.stack
        if not stack:
            self.kernel.cpu_went_empty(self)
            return
        top = stack[-1]
        if not top.running:
            if self.need_resched and top.kind in _RESCHED_KINDS:
                depth_before = len(stack)
                self.kernel.resched(self)
                if len(stack) > depth_before or self.top is not top:
                    return
            self._resume(top)

    # ------------------------------------------------------------------
    # Context-frame manipulation (used by the scheduler)
    # ------------------------------------------------------------------
    def swap_bottom(self, new_frame: Frame) -> Frame:
        """Replace the context frame (a real context switch).

        Only legal while the context frame is not running (i.e. from inside a
        kernel frame's ``on_exit`` — the tail of ``schedule()``).
        """
        if not self.stack:
            raise RuntimeError("no context frame to swap")
        old = self.stack[0]
        if old.running:
            raise RuntimeError("cannot swap a running context frame")
        self.stack[0] = new_frame
        return old

    def set_initial_context(self, frame: Frame) -> None:
        """Install the very first context frame on an empty CPU."""
        if self.stack:
            raise RuntimeError("CPU already has a context")
        self.stack.append(frame)
        self._resume(frame)


class KernelHooks:
    """What a CPU needs from the surrounding kernel (implemented by Node)."""

    #: Current trace sink; swapped when a tracer attaches.
    sink: TraceSink

    def resched(self, cpu: CPU) -> None:
        """Called when the CPU drained to its context frame with
        :attr:`CPU.need_resched` set.  May push scheduler frames."""
        raise NotImplementedError

    def context_done(self, cpu: CPU, frame: Frame) -> None:
        """A context frame (user burst / daemon service) reached its end."""
        raise NotImplementedError

    def cpu_went_empty(self, cpu: CPU) -> None:
        """Called if a CPU ends up with an empty stack (normally never)."""
        raise NotImplementedError
