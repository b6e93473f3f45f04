"""Demand-paged virtual memory: the page-fault noise source.

The paper finds page faults can dominate OS noise (82.4 % for AMG, 86.7 % for
UMT — Figure 3) with frequencies *above* the timer interrupt's (Table I) and
per-application duration distributions (Figure 4).  Faults here are a
workload-modulated Poisson process over each rank's user-mode execution:
while a rank computes, the next fault is exponentially distributed at the
rank's current fault rate (workloads change the rate per phase — LAMMPS
faults mostly during initialization, AMG throughout its whole run, Figure 5).

Each fault is either *minor* (page-on-demand / copy-on-write, the bulk of the
distribution) or *major* (an NFS-backed page read, the rare multi-millisecond
events behind Table I's extreme maxima).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.simkernel.cpu import Frame, FrameKind
from repro.simkernel.distributions import DurationModel
from repro.simkernel.engine import SimEvent
from repro.simkernel.task import Task
from repro.tracing.events import Ev

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.node import ComputeNode


@dataclass(frozen=True)
class PageFaultModel:
    """Per-application fault cost model.

    ``minor`` carries the distribution's body (and its shape, e.g. AMG's two
    peaks); a fault is *major* with probability ``major_prob`` and then draws
    from ``major`` instead.
    """

    minor: DurationModel
    major: Optional[DurationModel] = None
    major_prob: float = 0.0

    def sample(self, rng: np.random.Generator) -> "Tuple[int, bool]":
        """Return ``(duration_ns, is_major)``."""
        if self.major is not None and self.major_prob > 0.0:
            if rng.random() < self.major_prob:
                return max(1, self.major.sample(rng)), True
        return max(1, self.minor.sample(rng)), False


#: Hot-path alias (see ``repro.simkernel.cpu``): read once per fault.
_PAGE_FAULT = Ev.EXC_PAGE_FAULT


class _FaultState:
    """One rank's fault process.  The rank's user frame calls :meth:`arm`
    on resume and :meth:`cancel` on pause directly (bound in
    :meth:`ComputeNode.spawn_rank`), so arming a fault is one call."""

    __slots__ = ("mm", "task", "rate_per_sec", "model", "pending")

    def __init__(self, mm: "MemoryManager", task: Task) -> None:
        self.mm = mm
        self.task = task
        self.rate_per_sec = 0.0
        self.model: Optional[PageFaultModel] = None
        self.pending: Optional[SimEvent] = None

    def arm(self) -> None:
        """Schedule the next fault; the rank's user frame is running."""
        self.cancel()
        rate = self.rate_per_sec
        if rate <= 0 or self.model is None:
            return
        mm = self.mm
        gap_ns = max(1, int(mm.rng.exponential(1e9 / rate)))
        engine = mm.engine
        self.pending = engine.schedule(engine.now + gap_ns, self.fault)

    def cancel(self) -> None:
        """Drop the pending fault; the rank's user frame paused."""
        pending = self.pending
        if pending is not None:
            pending.cancel()
            self.pending = None

    def fault(self) -> None:
        self.pending = None
        task = self.task
        if task.cpu is None:
            return
        mm = self.mm
        cpu = mm.node.cpus[task.cpu]
        frame = cpu.top
        # The pending event is cancelled whenever the user frame pauses,
        # so the rank must be the running top-of-stack here.
        if frame is None or frame.task is not task or not frame.running:
            return
        duration, major = self.model.sample(mm.rng)  # type: ignore[union-attr]
        mm.fault_count += 1
        if major:
            mm.major_count += 1
        cpu.push(
            Frame(
                FrameKind.KACT,
                event=_PAGE_FAULT,
                name="page_fault",
                remaining=duration,
                arg=1 if major else 0,
            )
        )


class MemoryManager:
    """Drives per-rank page-fault processes."""

    def __init__(self, node: "ComputeNode") -> None:
        self.node = node
        #: Cached once: every fault arm schedules on the engine and draws
        #: from the ``"memory"`` stream.
        self.engine = node.engine
        self.rng = node.rng_for("memory")
        self._states: Dict[int, _FaultState] = {}
        self.fault_count = 0
        self.major_count = 0

    # ------------------------------------------------------------------
    def register_task(self, task: Task) -> _FaultState:
        """Create the rank's fault process; the caller binds the rank's
        user frame ``on_resume``/``on_pause`` to its ``arm``/``cancel``."""
        state = _FaultState(self, task)
        self._states[task.pid] = state
        return state

    def set_fault_rate(self, task: Task, rate_per_sec: float) -> None:
        """Change a rank's fault rate (workload phase transitions)."""
        if rate_per_sec < 0:
            raise ValueError("rate must be non-negative")
        state = self._states[task.pid]
        state.rate_per_sec = rate_per_sec
        # Re-arm if the rank is on-CPU right now.
        state.cancel()
        if task.cpu is not None:
            cpu = self.node.cpus[task.cpu]
            frame = cpu.stack[0] if cpu.stack else None
            if frame is not None and frame.task is task and frame.running:
                state.arm()

    def set_fault_model(self, task: Task, model: PageFaultModel) -> None:
        self._states[task.pid].model = model
