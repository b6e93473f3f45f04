"""Discrete-event simulation core.

A single binary-heap event queue over an integer-nanosecond clock.  Heap
entries are ``[time, seq, fn]`` lists, so ``heapq`` orders them by
comparing two ints in C; ``seq`` is unique, so the comparison never reaches
``fn``, and ties at one time break by insertion order — runs are fully
deterministic (DESIGN.md §6).

The entry is also the event's handle: :meth:`Engine.schedule` returns it
and :func:`cancel` clears its ``fn``.  Cancellation is lazy: a cancelled
entry stays in the heap and is dropped when popped, which keeps
``cancel`` O(1) — the simulated kernel cancels pending completions
constantly (every time an interrupt nests above a running activity).
Only this module knows the entry layout; callers hold a :data:`Handle`
and pass it to :func:`cancel`.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable, List

from repro import obs
from repro.util.rng import RngLike, make_rng

#: A scheduled event: its heap entry ``[time, seq, fn]``.
Handle = List[Any]


def cancel(handle: Handle) -> None:
    """Prevent a scheduled callback from running.  Idempotent; a no-op
    once the event has run."""
    handle[2] = None


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
        self._heap: List[Handle] = []
        self._seq = 0
        self._running = False
        #: Lifetime count of executed (non-cancelled) events; one integer
        #: add per event keeps the hot loop free of any obs calls.
        self.events_executed = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, at_ns: int, fn: Callable[[], None]) -> Handle:
        """Schedule ``fn`` to run at absolute time ``at_ns``."""
        if at_ns < self.now:
            raise ValueError(
                f"cannot schedule in the past (now={self.now}, at={at_ns})"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = [at_ns, seq, fn]
        heapq.heappush(self._heap, entry)
        return entry

    def schedule_after(self, delay_ns: int, fn: Callable[[], None]) -> Handle:
        """Schedule ``fn`` to run ``delay_ns`` from now."""
        if delay_ns < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule(self.now + delay_ns, fn)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_until(self, t_end_ns: int) -> None:
        """Run all events with timestamps <= ``t_end_ns``, then advance to it.

        Events scheduled *during* execution with timestamps inside the window
        run too, in timestamp order.  The loop never runs inside one of its
        own callbacks (that would move ``now`` past the caller's window).
        """
        if self._running:
            raise RuntimeError(
                "Engine is not reentrant: run_until cannot be called from "
                "an event callback"
            )
        track = obs.enabled()
        if track:
            wall0 = time.perf_counter_ns()  # noiselint: disable=DET001 -- host wall clock feeds obs throughput gauges only, never simulated state
            virt0 = self.now
            exec0 = self.events_executed
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        try:
            executed = 0
            while heap:  # hot: the main event loop; plain tallies only
                at, _, fn = heap[0]
                if fn is None:
                    heappop(heap)
                    continue
                if at > t_end_ns:
                    break
                heappop(heap)
                self.now = at
                fn()
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

    def pending_count(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for entry in self._heap if entry[2] is not None)
