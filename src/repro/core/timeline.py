"""Task-state timelines: when was each task running / runnable / blocked.

The noise classification rule ("we do not consider a kernel interruption as
noise if, when it occurs, a process is blocked waiting for communication")
rests on knowing each task's scheduler state over time.  This module makes
that observable a first-class object reconstructed from ``task_state`` and
``sched_switch`` point events: per-task state intervals, waiting-time
accounting, and CPU-occupancy summaries — the same data Paraver's state view
renders.

Each task's history is stored as three int64 columns (interval start, end
and state code); every query reduces those columns directly.
:class:`StateInterval` objects are built only by
:meth:`TaskTimeline.intervals`, per task and per call, for the Paraver and
Chrome exports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.model import TraceMeta
from repro.simkernel.task import TaskState
from repro.tracing.events import Ev


@dataclass(frozen=True)
class StateInterval:
    """One contiguous interval of a task in one scheduler state."""

    pid: int
    state: TaskState
    start: int
    end: int

    @property
    def duration_ns(self) -> int:
        return self.end - self.start


class TaskTimeline:
    """State history of every task in a trace."""

    def __init__(
        self,
        records: np.ndarray,
        meta: Optional[TraceMeta] = None,
        end_ts: Optional[int] = None,
    ) -> None:
        self.meta = meta if meta is not None else TraceMeta()
        if end_ts is None:
            end_ts = int(records["time"].max()) if len(records) else 0
        self.end_ts = int(end_ts)

        # Columnar pairing: order task_state records by (pid, time), ties
        # in record order, and zip each pid's consecutive events into
        # intervals.  A pid's last event opens an interval up to end_ts.
        # Zero-length intervals are dropped.
        sel = np.flatnonzero(records["event"] == int(Ev.TASK_STATE))
        times = records["time"][sel].astype(np.int64)
        args = records["arg"][sel]
        pids = (args >> np.uint64(8)).astype(np.int64)
        order = np.lexsort((times, pids))
        pids = pids[order]
        start = times[order]
        same_pid = np.zeros(len(pids), dtype=bool)
        same_pid[:-1] = pids[1:] == pids[:-1]
        end = np.where(same_pid, np.roll(start, -1), self.end_ts)
        keep = end > start
        pids = pids[keep]
        self._start = start[keep]
        self._end = end[keep]
        self._state = (args[order][keep] & np.uint64(0xFF)).astype(np.int64)
        # An unknown state code fails here, as building the objects would.
        # (bincount, not a plain np.unique, which imports numpy.ma.)
        for code in np.flatnonzero(np.bincount(self._state)).tolist():
            TaskState(code)
        #: pid -> (lo, hi) row range of its intervals, in pid order.
        uniq, los = np.unique(pids, return_index=True)
        his = np.append(los[1:], len(pids))
        self._rows: Dict[int, Tuple[int, int]] = {
            pid: (lo, hi)
            for pid, lo, hi in zip(uniq.tolist(), los.tolist(), his.tolist())
        }

    def _columns(
        self, pid: int, state: Optional[TaskState] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One task's ``(start, end, state)`` columns, time-ordered,
        optionally only the intervals in one state."""
        lo, hi = self._rows.get(pid, (0, 0))
        start, end, states = (
            self._start[lo:hi], self._end[lo:hi], self._state[lo:hi]
        )
        if state is None:
            return start, end, states
        m = states == int(state)
        return start[m], end[m], states[m]

    def _durations(self, pid: int, state: TaskState) -> np.ndarray:
        start, end, _ = self._columns(pid, state)
        return end - start

    # ------------------------------------------------------------------
    def pids(self) -> List[int]:
        return list(self._rows)

    def intervals(
        self, pid: int, state: Optional[TaskState] = None
    ) -> List[StateInterval]:
        """All (or one state's) intervals of a task, time-ordered."""
        start, end, states = self._columns(pid, state)
        return [
            StateInterval(pid, TaskState(code), lo, hi)
            for lo, hi, code in zip(
                start.tolist(), end.tolist(), states.tolist()
            )
        ]

    def state_at(self, pid: int, time_ns: int) -> Optional[TaskState]:
        """The task's state at an instant (None before its first event)."""
        start, end, states = self._columns(pid)
        idx = int(np.searchsorted(start, time_ns, side="right")) - 1
        if idx < 0:
            return None
        # Past the last interval the last known state persists.
        if time_ns < end[idx] or idx == len(start) - 1:
            return TaskState(int(states[idx]))
        return None

    def time_in_state(self, pid: int, state: TaskState) -> int:
        """Total nanoseconds the task spent in a state."""
        return int(self._durations(pid, state).sum())

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def occupancy(self, pid: int) -> Dict[TaskState, float]:
        """Fraction of the observed window per state.

        Each state's fraction is the sequential float sum, in interval
        order, of ``duration / total`` — what a loop over the intervals
        computes.  ``np.add.at`` accumulates in element order; a pairwise
        ``np.sum`` would not be bit-identical.
        """
        start, end, states = self._columns(pid)
        durations = end - start
        total = int(durations.sum())
        if total == 0:
            return {}
        codes, first, group = np.unique(
            states, return_index=True, return_inverse=True
        )
        acc = np.zeros(len(codes), dtype=np.float64)
        np.add.at(acc, group, durations / total)
        # Keys in order of first appearance.
        return {
            TaskState(int(codes[i])): float(acc[i]) for i in np.argsort(first)
        }

    def wait_times(self, pid: int) -> np.ndarray:
        """Durations of RUNNABLE episodes: how long the task waited for a
        CPU after being displaced or woken (scheduler-latency view)."""
        return self._durations(pid, TaskState.RUNNABLE)

    def blocked_times(self, pid: int) -> np.ndarray:
        """Durations of BLOCKED episodes (I/O and communication waits)."""
        return self._durations(pid, TaskState.BLOCKED)

    def summary(self) -> Dict[int, Dict[str, float]]:
        """Per-application-task digest used by reports.

        Occupancy fractions are floats, bit-equal to :meth:`occupancy`'s:
        one ``np.add.at`` over every application task's intervals, task by
        task in interval order, feeds each ``(task, state)`` accumulator
        the same sequential additions.  Episode counts and nanosecond
        sums stay int64-exact (NSX rules) — ``mean_wait_ns`` is the floor
        of the exact integer quotient, never a lossy float mean.
        """
        pids = [pid for pid in self._rows if self.meta.is_application(pid)]
        if not pids:
            return {}
        bounds = [self._rows[pid] for pid in pids]
        rows = np.concatenate([np.arange(lo, hi) for lo, hi in bounds])
        counts = np.array([hi - lo for lo, hi in bounds])
        heads = np.cumsum(counts) - counts
        task = np.repeat(np.arange(len(pids)), counts)
        durations = self._end[rows] - self._start[rows]
        states = self._state[rows]
        totals = np.add.reduceat(durations, heads)
        occupancy = np.zeros((len(pids), max(TaskState) + 1))
        np.add.at(
            occupancy.reshape(-1), task * occupancy.shape[1] + states,
            durations / totals[task],
        )
        waiting = states == int(TaskState.RUNNABLE)
        episodes = np.add.reduceat(waiting.astype(np.int64), heads).tolist()
        waited = np.add.reduceat(np.where(waiting, durations, 0), heads)
        out: Dict[int, Dict[str, float]] = {}
        for pid, occ, n, total_wait in zip(
            pids, occupancy.tolist(), episodes, waited.tolist()
        ):
            out[pid] = {
                "running": occ[TaskState.RUNNING],
                "runnable": occ[TaskState.RUNNABLE],
                "blocked": occ[TaskState.BLOCKED],
                "wait_episodes": n,
                "total_wait_ns": total_wait,
                "mean_wait_ns": total_wait // n if n else 0,
            }
        return out
