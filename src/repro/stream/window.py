"""Window-granular merging of streaming activity rows.

:class:`WindowMerger` consumes the blocks of finalized rows the
:class:`~repro.core.engine.StreamEngine` emits — in *emission* order,
which is not table order, each row with its tie-break number — and
maintains every aggregate the batch analysis derives from the full table,
exactly:

* **duration stats** as integer moments ``(count, total, min, max,
  sum-of-squares)`` per ``(event, pid)`` key and population (all /
  noise-only, truncated rows excluded).  Count, total, min, max and the
  derived mean are bit-identical to the batch numbers (integer sums are
  exact under float64 pairwise summation while below 2**53); the standard
  deviation comes from the exact moments instead of ``np.std``'s float
  pipeline, so it matches to float precision, not bit layout;
* **noise totals**: one :class:`~repro.core.analysis.NoiseTotals`, the
  int64 ``(cpu, category)`` fold batch analysis runs once over its finished
  table, here run once per block (integer sums do not depend on fold
  order); the facade answers every total query from it through
  :class:`~repro.core.analysis.DerivedQueries`;
* **timeline bins**: one :class:`_TimelineBinner` per configured quantum
  holds the noise rows that can still reach an unsealed bin and seals a
  bin only when no in-flight or future activity can still overlap it.
  Each seal runs the batch kernel
  (:func:`~repro.core.analysis.binned_noise_ns`) over the held rows in
  canonical table order, so the float accumulation order inside a bin is
  exactly the batch ``np.add.at`` order;
* **window chunks**: per-window :class:`ActivityTable` slices in canonical
  row order, emitted once the window is sealed.  Concatenating all chunks
  reproduces the batch table row for row.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.analysis import NoiseTotals, binned_noise_ns
from repro.core.engine import canonical_order, is_window
from repro.core.model import (
    ACTIVITY_DTYPE,
    ActivityTable,
    TraceMeta,
    activity_name,
    concat_rows,
    take_rows,
)
from repro.util.stats import DurationStats
from repro.util.units import SEC


class Moments:
    """Exact integer moments of one duration population."""

    __slots__ = ("count", "total", "mn", "mx", "sq")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.mn = 0
        self.mx = 0
        self.sq = 0  # sum of squares, arbitrary-precision int

    def merge(self, other: "Moments") -> None:
        self.fold(other.count, other.total, other.mn, other.mx, other.sq)

    def fold(self, count: int, total: int, mn: int, mx: int, sq: int) -> None:
        """Add a population of ``count`` values with the given sum,
        minimum, maximum and sum of squares."""
        if count == 0:
            return
        if self.count == 0 or mn < self.mn:
            self.mn = mn
        if self.count == 0 or mx > self.mx:
            self.mx = mx
        self.count += count
        self.total += total
        self.sq += sq

    def describe(self, span_ns: int, cpus: int) -> DurationStats:
        """The batch :func:`describe_durations` row from exact moments.

        ``std`` uses the textbook identity on exact integers — the one
        value that is *numerically equal* rather than bit-identical to the
        batch ``np.std``.
        """
        if span_ns <= 0:
            raise ValueError("span_ns must be positive")
        if cpus <= 0:
            raise ValueError("cpus must be positive")
        if self.count == 0:
            return DurationStats.empty()
        disc = self.count * self.sq - self.total * self.total
        if disc < 0:
            disc = 0
        return DurationStats(
            count=self.count,
            freq=self.count / (span_ns / SEC) / cpus,
            avg=self.total / self.count,
            max=self.mx,
            min=self.mn,
            std=math.sqrt(disc) / self.count,
            total=self.total,
        )


class _TimelineBinner:
    """One noise-per-quantum series, sealed incrementally.

    A bin can be sealed once every activity overlapping it has been
    emitted — i.e. when the engine's pending floor has passed the bin end.
    The binner holds the noise rows that can still reach an unsealed bin,
    with their tie-break numbers.  A seal puts them in canonical table
    order and runs the batch kernel
    (:func:`~repro.core.analysis.binned_noise_ns`) once over every bin it
    seals, so each bin accumulates the same rows in the same order as the
    batch timeline, bit for bit.
    """

    __slots__ = ("quantum_ns", "t0", "t1", "_parts", "_next", "_rows", "_seq")

    def __init__(
        self, quantum_ns: int, t0: int, t1: Optional[int] = None
    ) -> None:
        if quantum_ns <= 0:
            raise ValueError("quantum must be positive")
        self.quantum_ns = quantum_ns
        self.t0 = t0
        self.t1 = t1
        self._parts: List[np.ndarray] = []  # sealed bin values, in order
        self._next = 0  # bins sealed so far
        self._rows = np.zeros(0, dtype=ACTIVITY_DTYPE)
        self._seq = np.zeros(0, dtype=np.int64)

    def add(self, rows: np.ndarray, seq: np.ndarray) -> None:
        """Hold noise rows (caller filters ``is_noise``) and their
        tie-break numbers."""
        # Rows ending at or before the floor touch only sealed bins.
        fresh = rows["end"] > self.t0 + self._next * self.quantum_ns
        self._rows = concat_rows([self._rows, take_rows(rows, fresh)])
        self._seq = np.concatenate([self._seq, seq[fresh]])

    def _n_bins(self) -> int:
        return max(1, -(-(self.t1 - self.t0) // self.quantum_ns))

    def seal_to(self, floor: int) -> None:
        """Seal every bin whose end the pending floor has passed."""
        n = (floor - self.t0) // self.quantum_ns
        if self.t1 is not None:
            n = min(n, self._n_bins())
        if n <= self._next:
            return
        begin = self.t0 + self._next * self.quantum_ns
        end = self.t0 + n * self.quantum_ns
        order = canonical_order(self._rows, self._seq)
        rows = take_rows(self._rows, order)
        self._parts.append(binned_noise_ns(
            ActivityTable(rows), self.quantum_ns, begin,
            end if self.t1 is None else min(end, self.t1),
        ))
        self._next = n
        keep = rows["end"] > end
        self._rows = take_rows(rows, keep)
        self._seq = self._seq[order][keep]

    def finish(self, t1: int) -> None:
        if self.t1 is None:
            self.t1 = t1
        self.seal_to(self.t0 + self._n_bins() * self.quantum_ns)
        self._rows, self._seq = self._rows[:0], self._seq[:0]

    def result(self) -> np.ndarray:
        # A live stream may have sealed bins past the end finish() set.
        return np.concatenate(self._parts)[: self._n_bins()]


def _fold_moments(
    all_moments: Dict[Tuple[int, int], Moments],
    noise_moments: Dict[Tuple[int, int], Moments],
    events: np.ndarray,
    pids: np.ndarray,
    noise: np.ndarray,
    values: np.ndarray,
) -> None:
    """Fold ``values`` into the moments keyed by ``(event, pid)`` — every
    value into ``all_moments``, noise values also into ``noise_moments``
    — one group at a time; sums of squares are taken in Python ints."""
    order = np.lexsort((noise, pids, events))
    events = events[order]
    pids = pids[order]
    noise = noise[order]
    values = values[order]
    new = np.empty(len(values), dtype=bool)
    new[0] = True
    new[1:] = (
        (events[1:] != events[:-1]) | (pids[1:] != pids[:-1])
        | (noise[1:] != noise[:-1])
    )
    heads = np.flatnonzero(new)
    ends = np.append(heads[1:], len(values)).tolist()
    totals = np.add.reduceat(values, heads).tolist()
    mins = np.minimum.reduceat(values, heads).tolist()
    maxs = np.maximum.reduceat(values, heads).tolist()
    flat = values.tolist()
    for i, (head, event, pid, is_noise) in enumerate(zip(
        heads.tolist(), events[heads].tolist(), pids[heads].tolist(),
        noise[heads].tolist(),
    )):
        part = flat[head:ends[i]]
        moments = (
            len(part), totals[i], mins[i], maxs[i], sum(map(mul, part, part))
        )
        tables = (all_moments, noise_moments) if is_noise else (all_moments,)
        for table in tables:
            acc = table.get((event, pid))
            if acc is None:
                acc = table[(event, pid)] = Moments()
            acc.fold(*moments)


class WindowMerger:
    """Accumulate engine row blocks into batch-exact aggregates and
    chunks."""

    def __init__(
        self,
        ncpus: int,
        start_ts: int,
        meta: TraceMeta,
        window_ns: Optional[int] = None,
        quanta: Tuple[int, ...] = (),
        end_ts: Optional[int] = None,
        on_chunk: Optional[Callable[[int, ActivityTable], None]] = None,
    ) -> None:
        if window_ns is not None and window_ns <= 0:
            raise ValueError("window_ns must be positive")
        self.start_ts = start_ts
        self.meta = meta
        self.window_ns = window_ns
        self.on_chunk = on_chunk
        self.rows = 0
        self.windows_emitted = 0

        # (event, pid-or--1) -> exact moments; truncated rows excluded.
        self._all: Dict[Tuple[int, int], Moments] = {}
        self._noise: Dict[Tuple[int, int], Moments] = {}
        self.totals = NoiseTotals(ncpus)

        self._binners: Dict[int, _TimelineBinner] = {
            int(q): _TimelineBinner(int(q), start_ts, end_ts)
            for q in quanta
        }
        # Rows not chunked yet, with their tie-break numbers.
        self._chunk_rows = np.zeros(0, dtype=ACTIVITY_DTYPE)
        self._chunk_seq = np.zeros(0, dtype=np.int64)
        self._boundary = start_ts  # rows with start < this are chunked
        self._finished = False

    # ------------------------------------------------------------------
    def add(self, block: ActivityTable, seq: np.ndarray) -> None:
        """Fold one block of finalized rows into every aggregate; ``seq``
        holds each row's emission number within its kind (see
        :func:`~repro.core.engine.canonical_order`)."""
        d = block.data
        if not len(d):
            return
        self.rows += len(d)
        window = is_window(d["event"])
        noise = d["is_noise"]

        kept = ~d["truncated"]
        if kept.any():
            _fold_moments(
                self._all, self._noise, d["event"][kept],
                np.where(window[kept], d["pid"][kept], -1), noise[kept],
                d["self_ns"][kept],
            )

        self.totals.add(d)

        if self._binners and noise.any():
            # The timeline has no cpu/truncated mask: every noise row
            # contributes, batch-identically.
            rows, row_seq = take_rows(d, noise), seq[noise]
            for binner in self._binners.values():
                binner.add(rows, row_seq)

        if self.window_ns is not None:
            self._chunk_rows = concat_rows([self._chunk_rows, d])
            self._chunk_seq = np.concatenate([self._chunk_seq, seq])

    # ------------------------------------------------------------------
    def seal_to(self, floor: Optional[int]) -> None:
        """Advance sealing to the engine's pending floor: emit every
        window and timeline bin no in-flight activity can still touch."""
        if floor is None:
            return
        for binner in self._binners.values():
            binner.seal_to(floor)
        if self.window_ns is not None:
            while self._boundary + self.window_ns <= floor:
                self._emit_chunk()

    def finish(self, end_ts: int) -> None:
        if self._finished:
            return
        self._finished = True
        for binner in self._binners.values():
            binner.finish(end_ts)
        if self.window_ns is not None:
            while len(self._chunk_rows):
                self._emit_chunk()

    # ------------------------------------------------------------------
    def _emit_chunk(self) -> None:
        b0 = self._boundary
        b1 = b0 + self.window_ns
        self._boundary = b1
        m = self._chunk_rows["start"] < b1
        take = take_rows(self._chunk_rows, m)
        seq = self._chunk_seq[m]
        if len(take):
            self._chunk_rows = take_rows(self._chunk_rows, ~m)
            self._chunk_seq = self._chunk_seq[~m]
        index = (b0 - self.start_ts) // self.window_ns
        self.windows_emitted += 1
        if obs.enabled():
            obs.counter("stream.windows").inc()
            obs.counter("stream.window_rows").inc(len(take))
        if self.on_chunk is not None:
            take = take_rows(take, canonical_order(take, seq))
            self.on_chunk(index, ActivityTable(take, meta=self.meta))

    # ------------------------------------------------------------------
    # Batch-exact query backends (the facade wraps these)
    # ------------------------------------------------------------------
    def moments_for_event(self, event: int, noise_only: bool) -> Moments:
        table = self._noise if noise_only else self._all
        merged = Moments()
        for (ev, _), acc in table.items():
            if ev == event:
                merged.merge(acc)
        return merged

    def moments_by_name(self, noise_only: bool) -> Dict[str, Moments]:
        """Population moments grouped by display name, sorted by name —
        the grouping :meth:`NoiseAnalysis.stats_by_event` applies (both
        preemption pseudo-events share one ``preempt:<daemon>`` name)."""
        table = self._noise if noise_only else self._all
        out: Dict[str, Moments] = {}
        for (ev, pid), acc in table.items():
            name = activity_name(ev, pid, self.meta)
            merged = out.get(name)
            if merged is None:
                out[name] = merged = Moments()
            merged.merge(acc)
        return {name: out[name] for name in sorted(out)}

    def timeline(self, quantum_ns: int) -> np.ndarray:
        binner = self._binners.get(int(quantum_ns))
        if binner is None:
            raise ValueError(
                f"quantum {quantum_ns} was not configured for streaming; "
                f"available: {sorted(self._binners)}"
            )
        return binner.result()
