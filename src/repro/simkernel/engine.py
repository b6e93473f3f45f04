"""Discrete-event simulation core.

A single binary-heap event queue over an integer-nanosecond clock.  Heap
entries are ``(time, seq, event)`` tuples, so ``heapq`` orders them by
comparing two ints in C; ``seq`` is unique, so the comparison never reaches
the event, and ties at one time break by insertion order — runs are fully
deterministic (DESIGN.md §6).  Cancellation is lazy: a cancelled event stays
in the heap but is skipped when popped, which keeps ``cancel`` O(1) — the
simulated kernel cancels pending completions constantly (every time an
interrupt nests above a running activity).
"""

from __future__ import annotations

import heapq
import time
import warnings
from typing import Callable, List, Optional, Tuple

from repro import obs
from repro.util.rng import RngLike, make_rng


class SimBudgetWarning(RuntimeWarning):
    """A ``run_to_completion`` stopped at its event budget with live events
    still queued — the simulation was truncated, not completed."""


class SimEvent:
    """A scheduled callback.  Returned by :meth:`Engine.schedule` as a handle.

    The heap orders ``(time, seq, event)`` entries, never events, so an
    event needs no ordering of its own."""

    __slots__ = ("time", "seq", "fn", "cancelled")

    def __init__(self, time: int, seq: int, fn: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<SimEvent t={self.time} seq={self.seq} {state}>"


class Engine:
    """The simulation clock and event queue.

    Parameters
    ----------
    seed:
        Root seed (or Generator).  Subsystems derive their own streams from
        :attr:`rng` via :func:`repro.util.rng.spawn_rngs`.
    """

    def __init__(self, seed: RngLike = 0) -> None:
        self.now: int = 0
        self.rng = make_rng(seed)
        self._heap: List[Tuple[int, int, SimEvent]] = []
        self._seq = 0
        self._running = False
        #: Lifetime count of executed (non-cancelled) events; one integer
        #: add per event keeps the hot loop free of any obs calls.
        self.events_executed = 0
        #: Set when a ``run_to_completion`` hit its event budget.
        self.budget_exhausted = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, at_ns: int, fn: Callable[[], None]) -> SimEvent:
        """Schedule ``fn`` to run at absolute time ``at_ns``."""
        if at_ns < self.now:
            raise ValueError(
                f"cannot schedule in the past (now={self.now}, at={at_ns})"
            )
        seq = self._seq
        self._seq = seq + 1
        ev = SimEvent(at_ns, seq, fn)
        heapq.heappush(self._heap, (at_ns, seq, ev))
        return ev

    def schedule_after(self, delay_ns: int, fn: Callable[[], None]) -> SimEvent:
        """Schedule ``fn`` to run ``delay_ns`` from now."""
        if delay_ns < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule(self.now + delay_ns, fn)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[int]:
        """Timestamp of the next live event, or None if the queue is drained."""
        self._drop_cancelled_head()
        return self._heap[0][0] if self._heap else None

    def _enter(self) -> None:
        """Claim the event loop; the loop never runs inside one of its own
        callbacks (that would move ``now`` past the caller's window)."""
        if self._running:
            raise RuntimeError(
                "Engine is not reentrant: run_until, step and "
                "run_to_completion cannot be called from an event callback"
            )
        self._running = True

    def step(self) -> bool:
        """Run the next live event.  Returns False when the queue is empty."""
        self._enter()
        try:
            return self._step()
        finally:
            self._running = False

    def _step(self) -> bool:
        self._drop_cancelled_head()
        if not self._heap:
            return False
        at, _, ev = heapq.heappop(self._heap)
        self.now = at
        ev.fn()
        self.events_executed += 1
        return True

    def run_until(self, t_end_ns: int) -> None:
        """Run all events with timestamps <= ``t_end_ns``, then advance to it.

        Events scheduled *during* execution with timestamps inside the window
        run too, in timestamp order.
        """
        track = obs.enabled()
        if track:
            wall0 = time.perf_counter_ns()  # noiselint: disable=DET001 -- host wall clock feeds obs throughput gauges only, never simulated state
            virt0 = self.now
            exec0 = self.events_executed
        self._enter()
        heap = self._heap
        heappop = heapq.heappop
        try:
            executed = 0
            while heap:  # hot: the main event loop; plain tallies only
                at, _, ev = heap[0]
                if ev.cancelled:
                    heappop(heap)
                    continue
                if at > t_end_ns:
                    break
                heappop(heap)
                self.now = at
                ev.fn()
                executed += 1
            self.events_executed += executed
            if t_end_ns > self.now:
                self.now = t_end_ns
        finally:
            self._running = False
        if track:
            self._report_run(wall0, virt0, exec0)

    def _report_run(self, wall0: int, virt0: int, exec0: int) -> None:
        """Record the finished window's throughput gauges (cold path)."""
        wall_ns = max(1, time.perf_counter_ns() - wall0)  # noiselint: disable=DET001 -- host wall clock feeds obs throughput gauges only, never simulated state
        executed = self.events_executed - exec0
        obs.counter("sim.events").inc(executed)
        obs.gauge("sim.events_per_wall_sec").set(executed * 1e9 / wall_ns)
        obs.gauge("sim.virtual_wall_ratio").set((self.now - virt0) / wall_ns)
        obs.gauge("sim.pending_queue_depth").set(self.pending_count())

    def run_to_completion(self, max_events: int = 10_000_000) -> int:
        """Drain the queue.  Returns the number of events executed.

        A simulation that reaches ``max_events`` with live events still
        queued is *truncated*, not completed: execution stops, the engine's
        :attr:`budget_exhausted` flag is set, an obs counter is bumped and a
        :class:`SimBudgetWarning` is emitted so callers can tell the two
        apart.
        """
        self._enter()
        executed = 0
        self.budget_exhausted = False
        try:
            # hot: one iteration per simulated event
            while self._step():
                executed += 1
                if executed >= max_events and self.peek_time() is not None:
                    self.budget_exhausted = True
                    break
        finally:
            self._running = False
        if self.budget_exhausted:
            if obs.enabled():
                obs.counter("sim.budget_exhausted").inc()
            warnings.warn(
                f"event budget exhausted after {executed} events with "
                f"{self.pending_count()} still pending — simulation "
                f"truncated at t={self.now}",
                SimBudgetWarning,
                stacklevel=2,
            )
        return executed

    def pending_count(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for _, _, ev in self._heap if not ev.cancelled)

    # ------------------------------------------------------------------
    def _drop_cancelled_head(self) -> None:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
