"""Window-granular merging of streaming activity rows.

:class:`WindowMerger` consumes the blocks of finalized rows the
:class:`~repro.core.engine.StreamEngine` emits — in *emission* order,
which is not table order, each row with its tie-break number — and
maintains every aggregate the batch analysis derives from the full table,
exactly:

* **duration stats**: the merger is an
  :class:`~repro.core.analysis.EventMoments`, the exact integer moments
  ``(count, total, min, max, sum-of-squares)`` per ``(event, pid)`` key
  and population (all / noise-only, truncated rows excluded) that batch
  analysis folds once over its finished table, here folded once per
  block through the same kernel.  Integer moments do not depend on how
  the rows were split, so every field of every row, ``std`` included,
  equals the batch row;
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
  row order, emitted once the window is sealed.  Windows are output cuts,
  not engine blocks: each seal sorts the held rows once and slices every
  window it passes, empty ones included, out of them.  Concatenating all
  chunks reproduces the batch table row for row.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.analysis import EventMoments, NoiseTotals, binned_noise_ns
# The fold's differential tests import the kernel by this name.
from repro.core.analysis import fold_moments as _fold_moments  # noqa: F401
from repro.core.engine import canonical_order
from repro.core.model import (
    ACTIVITY_DTYPE,
    ActivityTable,
    TraceMeta,
    concat_rows,
    take_rows,
)


class _HeldRows:
    """Activity rows held for a later cut, with their tie-break numbers.

    :meth:`ordered` sorts the held rows into canonical table order once
    (they stay in that order); :meth:`keep` then drops the rows a cut
    used.
    """

    __slots__ = ("rows", "seq")

    def __init__(self) -> None:
        self.rows = np.zeros(0, dtype=ACTIVITY_DTYPE)
        self.seq = np.zeros(0, dtype=np.int64)

    def add(self, rows: np.ndarray, seq: np.ndarray) -> None:
        self.rows = concat_rows([self.rows, rows])
        self.seq = np.concatenate([self.seq, seq])

    def ordered(self) -> np.ndarray:
        """The held rows in canonical table order."""
        order = canonical_order(self.rows, self.seq)
        self.rows = take_rows(self.rows, order)
        self.seq = self.seq[order]
        return self.rows

    def keep(self, mask: np.ndarray) -> None:
        self.rows = take_rows(self.rows, mask)
        self.seq = self.seq[mask]


class _TimelineBinner:
    """One noise-per-quantum series, sealed incrementally.

    A bin can be sealed once every activity overlapping it has been
    emitted — i.e. when the engine's pending floor has passed the bin end.
    The binner holds the noise rows that can still reach an unsealed bin.
    A seal puts them in canonical table order and runs the batch kernel
    (:func:`~repro.core.analysis.binned_noise_ns`) once over every bin it
    seals, so each bin accumulates the same rows in the same order as the
    batch timeline, bit for bit.
    """

    __slots__ = ("quantum_ns", "t0", "t1", "_parts", "_next", "_held")

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
        self._held = _HeldRows()

    def add(self, rows: np.ndarray, seq: np.ndarray) -> None:
        """Hold noise rows (caller filters ``is_noise``) and their
        tie-break numbers."""
        # Rows ending at or before the floor touch only sealed bins.
        fresh = rows["end"] > self.t0 + self._next * self.quantum_ns
        self._held.add(take_rows(rows, fresh), seq[fresh])

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
        rows = self._held.ordered()
        self._parts.append(binned_noise_ns(
            ActivityTable(rows), self.quantum_ns, begin,
            end if self.t1 is None else min(end, self.t1),
        ))
        self._next = n
        self._held.keep(rows["end"] > end)

    def finish(self, t1: int) -> None:
        if self.t1 is None:
            self.t1 = t1
        self.seal_to(self.t0 + self._n_bins() * self.quantum_ns)
        self._held = _HeldRows()

    def result(self) -> np.ndarray:
        # A live stream may have sealed bins past the end finish() set.
        return np.concatenate(self._parts)[: self._n_bins()]


class WindowMerger(EventMoments):
    """Accumulate engine row blocks into batch-exact aggregates and
    chunks; the per-event moments are the inherited
    :class:`~repro.core.analysis.EventMoments`."""

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
        super().__init__(meta)
        self.start_ts = start_ts
        self.window_ns = window_ns
        self.on_chunk = on_chunk
        self.rows = 0
        self.windows_emitted = 0
        self.totals = NoiseTotals(ncpus)

        self._binners: Dict[int, _TimelineBinner] = {
            int(q): _TimelineBinner(int(q), start_ts, end_ts)
            for q in quanta
        }
        self._held = _HeldRows()  # rows not chunked yet
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
        noise = d["is_noise"]
        self.fold_rows(d)
        self.totals.add(d)

        if self._binners and noise.any():
            # The timeline has no cpu/truncated mask: every noise row
            # contributes, batch-identically.
            rows, row_seq = take_rows(d, noise), seq[noise]
            for binner in self._binners.values():
                binner.add(rows, row_seq)

        if self.window_ns is not None:
            self._held.add(d, seq)

    # ------------------------------------------------------------------
    def seal_to(self, floor: int) -> None:
        """Advance sealing to the engine's pending floor: emit every
        window and timeline bin no in-flight activity can still touch."""
        for binner in self._binners.values():
            binner.seal_to(floor)
        if self.window_ns is not None:
            self._cut((floor - self._boundary) // self.window_ns)

    def finish(self, end_ts: int) -> None:
        if self._finished:
            return
        self._finished = True
        for binner in self._binners.values():
            binner.finish(end_ts)
        if self.window_ns is not None and len(self._held.rows):
            last = int(self._held.rows["start"].max())
            self._cut((last - self._boundary) // self.window_ns + 1)

    # ------------------------------------------------------------------
    def _cut(self, n: int) -> None:
        """Emit the next ``n`` windows, empty ones included.  Canonical
        order is start-major, so each window is one slice of the ordered
        held rows."""
        if n <= 0:
            return
        rows = self._held.ordered()
        ends = self._boundary + self.window_ns * np.arange(1, n + 1)
        cuts = rows["start"].searchsorted(ends).tolist()
        first = (self._boundary - self.start_ts) // self.window_ns
        self._boundary = int(ends[-1])
        self.windows_emitted += n
        if obs.enabled():
            obs.counter("stream.windows").inc(n)
            obs.counter("stream.window_rows").inc(cuts[-1])
        if self.on_chunk is not None:
            for k, (lo, hi) in enumerate(zip([0] + cuts, cuts)):
                self.on_chunk(
                    first + k, ActivityTable(rows[lo:hi], meta=self.meta)
                )
        self._held.keep(rows["start"] >= self._boundary)

    # ------------------------------------------------------------------
    # Query backend the facade wraps (the moments are inherited)
    # ------------------------------------------------------------------
    def timeline(self, quantum_ns: int) -> np.ndarray:
        binner = self._binners.get(int(quantum_ns))
        if binner is None:
            raise ValueError(
                f"quantum {quantum_ns} was not configured for streaming; "
                f"available: {sorted(self._binners)}"
            )
        return binner.result()
