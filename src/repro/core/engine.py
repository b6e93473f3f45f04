"""The analysis engine: nesting, preemption and classification kernels,
one block at a time.

:meth:`StreamEngine.process_to` cuts every buffered record below a
boundary into one block and runs the analysis kernels on it —
:func:`~repro.core.nesting.pair_block` for ENTRY/EXIT matching,
:class:`~repro.core.nesting.PreemptionTracker` for daemon windows, then
the nested-time subtraction and the classification of
:mod:`repro.core.classify` — carrying across the boundary only the state a
later record can still change.  It is the only analysis pass there is:
:class:`~repro.core.analysis.NoiseAnalysis` feeds a whole trace and
processes it as one block, :class:`~repro.stream.StreamingAnalysis` one
block per watermark advance.  Lost-event gaps enter through
:meth:`StreamEngine.feed_gap` on both paths.

Canonical order
---------------
A record's canonical position is ``(time, cpu, per-cpu sequence)``; for
a tracer-written (CPU-major) trace this is exactly the stable time sort
of the concatenated packets.  The engine never sorts a whole block into
it.  A block is CPU-major: the buffered pieces concatenated CPU by CPU
(ascending), each CPU's records in time order, so its stable time sort
is the canonical order.  Each kernel takes the order it needs:

* ENTRY/EXIT matching is per CPU, and :func:`pair_block` groups its
  tokens by CPU anyway;
* the preemption tracker and the ``MARKER`` records need cross-CPU time
  order, so only those subsets (about a tenth of the records) get a
  stable time sort;
* a lost-event gap maps from its anchor's sequence number to a block
  position through its CPU's span.

Input the tracer never writes — a CPU's records out of time order, as in
a hand-built array — costs one vectorized compare to detect: that CPU's
span is stably sorted by time and its gap anchors follow, so the output
equals a sort of the whole block.  Rows are emitted in blocks that are
not globally ordered; :func:`canonical_order` puts them in table order.

Carried state
-------------
Once every record below the boundary is processed, a row is final unless
it is one of two kinds:

* a preemption window in which a depth-0 frame opened that is still open
  (its nested time is not known yet);
* a kernel row whose covering window is a still-open daemon segment that
  displaced a rank (whether and where that window ends is not known yet).

Those are carried, along with the open frames (the walker's stacks), the
preemption tracker, the depth-0 intervals a pending or future window can
still contain, and the window history behind each CPU's classification
horizon.  Final rows go to ``on_rows`` as one :class:`ActivityTable`
block per call, with their tie-break sequence numbers;
:meth:`StreamEngine.pending_floor` is the smallest start in the carried
state — no emitted-or-future row can start before it, which is what lets
the merger seal timeline bins and ship window chunks behind it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.classify import _classify_inplace
from repro.core.model import (
    ActivityTable,
    PREEMPT_EVENT,
    PidKinds,
    TRACER_PREEMPT_EVENT,
    TraceMeta,
    concat_rows,
    take_rows,
)
from repro.core.nesting import (
    ActivityStackWalker,
    GapMarkers,
    PreemptionTracker,
    _subtract_nested_table,
    pair_block,
)
from repro.tracing.ctf import Packet
from repro.tracing.events import Ev, FIRST_POINT_EVENT, RECORD_DTYPE

_EV_STATE = int(Ev.TASK_STATE)
_EV_SWITCH = int(Ev.SCHED_SWITCH)
_EV_MARKER = int(Ev.MARKER)

#: "No bound": past every timestamp.
_NEVER = np.iinfo(np.int64).max
#: Per-CPU lookup arrays cover the record format's one-byte CPU ids.
_CPU_SLOTS = 256


def _by_cpu(values: Dict[int, int], default: int = _NEVER) -> np.ndarray:
    """A per-CPU lookup array: ``values[cpu]``, else ``default``."""
    out = np.full(_CPU_SLOTS, default, dtype=np.int64)
    for cpu, value in values.items():
        out[cpu] = min(value, default)
    return out


def _time_sorted_runs(
    block: np.ndarray, runs: List[Tuple[int, int, int, int]]
) -> Tuple[np.ndarray, Dict[int, np.ndarray]]:
    """``block`` with every CPU span that is not in time order stably
    sorted by time, and the permutation applied to each such span.
    Tracer-written packets are in order, so this is one compare."""
    time_ = block["time"]
    down = time_[1:] < time_[:-1]
    for _, lo, _, _ in runs[1:]:
        down[lo - 1] = False  # a new CPU's span may start earlier
    perms: Dict[int, np.ndarray] = {}
    if not down.any():
        return block, perms
    block = block.copy()
    for cpu, lo, hi, _ in runs:
        if down[lo:hi - 1].any():
            perms[cpu] = time_[lo:hi].argsort(kind="stable")
            block[lo:hi] = take_rows(block[lo:hi], perms[cpu])
    return block, perms


def _time_sorted(block: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The masked records of a CPU-major block in canonical order: a
    stable time sort keeps ties in (cpu, sequence) order."""
    index = mask.nonzero()[0]
    if len(index) > 1:
        index = index[block["time"][index].argsort(kind="stable")]
    return take_rows(block, index)


def canonical_order(data: np.ndarray, seq: np.ndarray) -> np.ndarray:
    """Indices that put emitted rows in table order: ``(start, cpu,
    depth)``, then kernel activities before preemption windows, then
    emission order within each kind."""
    return np.lexsort(
        (seq, is_window(data["event"]), data["depth"], data["cpu"],
         data["start"])
    )


def is_window(events: np.ndarray) -> np.ndarray:
    """Rows that are preemption windows rather than kernel activities."""
    return (events == PREEMPT_EVENT) | (events == TRACER_PREEMPT_EVENT)


class StreamEngine:
    """Block processor emitting finalized activity rows.

    ``on_rows(block, seq)`` receives every row exactly once, when its
    category, noise flag and self-time are final.  Blocks are not globally
    ordered; a row's table position is the sort key ``(start, cpu, depth,
    kind, seq)`` — ``kind`` is 1 for preemption windows and 0 for kernel
    activities, ``seq`` the row's number within its kind — which
    :func:`canonical_order` applies.
    """

    def __init__(
        self,
        meta: TraceMeta,
        on_rows: Callable[[ActivityTable, np.ndarray], None],
        strict: bool = False,
    ) -> None:
        self.meta = meta
        self.on_rows = on_rows
        self.records_processed = 0
        self._markers: List[np.ndarray] = []

        # Per-CPU record buffers: (structured array, first sequence no).
        self._buffers: Dict[int, List[Tuple[np.ndarray, int]]] = {}
        self._next_seq: Dict[int, int] = {}
        self._pending_records = 0
        # Lost-event gaps awaiting their anchor record: cpu -> deque of
        # (anchor_seq, gap_ts).
        self._gaps: Dict[int, Deque[Tuple[int, int]]] = {}

        self._walker = ActivityStackWalker(strict=strict)
        self._tracker = PreemptionTracker(meta)
        self._kinds = PidKinds(meta)
        # Closed preemption windows: the ones still waiting for nested
        # time (not done) plus the classification history (done).
        self._windows = ActivityTable.empty(meta=meta)
        self._w_seq = np.zeros(0, dtype=np.int64)
        self._w_done = np.zeros(0, dtype=bool)
        # Depth-0 kernel intervals a pending or future window may contain.
        self._k0 = ActivityTable.empty(meta=meta)
        # Kernel rows whose covering window is a still-open segment.
        self._held = ActivityTable.empty(meta=meta)
        self._held_seq = np.zeros(0, dtype=np.int64)

        self._kact_seq = 0
        self._window_seq = 0
        self._cursor = 0
        self._finished = False

    # ------------------------------------------------------------------
    # Input
    # ------------------------------------------------------------------
    def feed_packet(self, packet: Packet) -> None:
        """Buffer one decoded packet; a packet with ``lost_before > 0``
        first notes its gap (:meth:`feed_gap` at its ``begin_ts``)."""
        if packet.lost_before > 0:
            self.feed_gap(packet.cpu, packet.begin_ts)
        self.feed_records(packet.cpu, packet.records())

    def feed_records(self, cpu: int, records: np.ndarray) -> None:
        """Buffer one packet's records (per-CPU chronological order)."""
        if records.dtype != RECORD_DTYPE:
            records = np.asarray(records, dtype=RECORD_DTYPE)
        if obs.enabled():
            obs.counter("decode.packets").inc()
        if not len(records):
            return
        seq = self._next_seq.get(cpu, 0)
        self._buffers.setdefault(cpu, []).append((records, seq))
        self._next_seq[cpu] = seq + len(records)
        self._pending_records += len(records)

    def feed_gap(self, cpu: int, gap_ts: int) -> None:
        """Note lost events on ``cpu`` before the next record fed for it.

        Records were lost up to ``gap_ts``, the first timestamp known good
        after the loss.  Open frames on ``cpu`` truncate at ``gap_ts`` just
        before that next record is processed, or at end of stream if none
        follows.  Anchoring by position, not by time, keeps records that
        share the gap's timestamp on the right side of it.
        """
        anchor = self._next_seq.get(cpu, 0)
        self._gaps.setdefault(cpu, deque()).append((anchor, int(gap_ts)))

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------
    def process_to(self, boundary: Optional[int]) -> np.ndarray:
        """Process every buffered record with ``time < boundary`` (all of
        them when ``boundary`` is None) as one block.  The caller
        guarantees no future record times below the boundary (watermark).

        Returns the block: the processed records CPU-major, CPUs
        ascending and each CPU's records in time order (ties in feed
        order).  Its stable time sort is the canonical order."""
        parts: List[np.ndarray] = []
        # Each CPU's span of the block: (cpu, lo, hi, first sequence no).
        runs: List[Tuple[int, int, int, int]] = []
        lo = 0
        for cpu in sorted(self._buffers):
            chunks = self._buffers[cpu]
            if not chunks:
                continue
            seq0 = chunks[0][1]
            # A CPU's chunks are in time order: the first one the boundary
            # cuts ends the scan.
            taken = 0
            hi = lo
            for arr, first in chunks:
                # np.uint64: a Python int against the u8 time column would
                # be compared as float64, inexact past 2**53 ns.
                cut = (
                    len(arr) if boundary is None
                    else int(arr["time"].searchsorted(np.uint64(boundary)))
                )
                if cut:
                    parts.append(arr[:cut])
                    hi += cut
                if cut < len(arr):
                    chunks[taken] = (arr[cut:], first + cut)
                    break
                taken += 1
            del chunks[:taken]
            if hi > lo:
                runs.append((cpu, lo, hi, seq0))
                lo = hi
        if boundary is not None:
            self._cursor = max(self._cursor, boundary)
        if not parts:
            return np.zeros(0, dtype=RECORD_DTYPE)

        with obs.span("trace-decode"):
            block, perms = _time_sorted_runs(concat_rows(parts), runs)
        n = len(block)
        self._pending_records -= n
        self.records_processed += n
        if obs.enabled():
            obs.counter("decode.records").inc(n)

        events = block["event"]
        with obs.span("nesting"):
            paired = events < FIRST_POINT_EVENT
            gaps = self._anchor_gaps(runs, perms, paired)
            rows = pair_block(
                take_rows(block, paired), self._walker, self.meta, gaps
            )
        with obs.span("preemption"):
            sched = _time_sorted(
                block, (events == _EV_STATE) | (events == _EV_SWITCH)
            )
            if len(sched):
                self._tracker.feed(sched)
        markers = _time_sorted(block, events == _EV_MARKER)
        if len(markers):
            self._markers.append(markers)
        with obs.span("classify"):
            self._settle(
                rows, self._tracker.take_table(),
                _NEVER if boundary is None else boundary,
            )
        return block

    def _anchor_gaps(
        self,
        runs: List[Tuple[int, int, int, int]],
        perms: Dict[int, np.ndarray],
        paired: np.ndarray,
    ) -> GapMarkers:
        """Pending gaps whose anchor record is in this block, as
        ``(cpu, gap_ts, pos)`` markers into the block's paired records.
        ``runs`` holds each CPU's ``(cpu, lo, hi, first seq)`` span of the
        block, ``perms`` the time sort applied to a span fed out of
        order."""
        if not self._gaps:
            return []
        kept = np.flatnonzero(paired)
        out = []
        for cpu, lo, hi, seq0 in runs:
            queue = self._gaps.get(cpu)
            if queue is None:
                continue
            # The span's sequence numbers, in block order.
            perm = perms.get(cpu)
            seqs = seq0 + (np.arange(hi - lo) if perm is None else perm)
            while queue and queue[0][0] <= seqs[-1]:
                anchor, gap_ts = queue.popleft()
                pos = lo + int(seqs.searchsorted(anchor))
                out.append((cpu, gap_ts, int(kept.searchsorted(pos))))
            if not queue:
                del self._gaps[cpu]
        out.sort(key=lambda gap: gap[2])
        return out

    def finish(self, end_ts: int) -> None:
        """End of stream: process what is buffered, truncate what is still
        open at ``end_ts``, and decide every carried row."""
        if self._finished:
            return
        self._finished = True
        self.process_to(None)
        # Leftover gaps (e.g. an empty tail sub-buffer with no later
        # record on its CPU) truncate at their own boundary, before
        # end-of-trace truncation.
        for cpu in sorted(self._gaps):
            for _, gap_ts in self._gaps[cpu]:
                self._walker.gap(cpu, gap_ts)
        self._gaps.clear()
        self._walker.finish(int(end_ts))
        self._tracker.finish(int(end_ts))
        with obs.span("classify"):
            self._settle(
                self._walker.take_table(self.meta),
                self._tracker.take_table(), _NEVER,
            )

    def _settle(
        self, rows: ActivityTable, windows: ActivityTable, cursor: int
    ) -> None:
        """Fold one block's closed rows and windows into the carried
        state, classify and emit every row that is now final, and prune
        what no later row can need.  Every record below ``cursor`` is
        processed."""
        meta = self.meta
        kd = rows.data
        k_seq = np.arange(self._kact_seq, self._kact_seq + len(kd))
        self._kact_seq += len(kd)
        n_w = len(windows)
        if len(kd) and (
            n_w or not self._w_done.all() or self._tracker.open_windows()
        ):
            # Depth-0 intervals can only be nested in a window that closed
            # in this block, is pending, or is still open.
            depth0 = take_rows(kd, kd["depth"] == 0)
            if len(depth0):
                self._k0 = ActivityTable(
                    concat_rows([self._k0.data, depth0]), meta=meta
                )
        if n_w:
            self._windows = ActivityTable(
                concat_rows([self._windows.data, windows.data]), meta=meta
            )
            self._w_seq = np.concatenate([
                self._w_seq,
                np.arange(self._window_seq, self._window_seq + n_w),
            ])
            self._window_seq += n_w
            self._w_done = np.concatenate(
                [self._w_done, np.zeros(n_w, dtype=bool)]
            )
        if len(self._held):
            kd = concat_rows([self._held.data, kd])
            k_seq = np.concatenate([self._held_seq, k_seq])

        # Kernel rows: classify, unless the covering window is a daemon
        # segment still open (it started at or before the row).
        segments = self._tracker.open_windows()
        if segments and len(kd):
            hold = _by_cpu(segments)[kd["cpu"]] <= kd["start"]
            self._held = ActivityTable(take_rows(kd, hold), meta=meta)
            self._held_seq = k_seq[hold]
            kd = take_rows(kd, ~hold)
            k_seq = k_seq[~hold]
        elif len(self._held):
            self._held = ActivityTable.empty(meta=meta)
            self._held_seq = k_seq[:0]
        ready = ActivityTable(kd, meta=meta)
        if len(ready) or n_w:
            _classify_inplace(ready, self._windows, self._kinds)
        out = [kd]
        seq = [k_seq]

        # Windows: subtract nested time, unless a depth-0 frame that
        # opened inside the window is still open.
        if not self._w_done.all():
            wd = self._windows.data
            d0 = _by_cpu(self._walker.open_starts())[wd["cpu"]]
            go = ~self._w_done & ~((wd["start"] <= d0) & (d0 < wd["end"]))
            if go.any():
                done = self._windows.take(go)
                _subtract_nested_table(done, self._k0)
                self._w_done |= go
                out.append(done.data)
                seq.append(self._w_seq[go])

        if sum(len(part) for part in out):
            final = ActivityTable(concat_rows(out), meta=meta)
            if obs.enabled():
                obs.counter("classify.activities").inc(len(final))
                obs.counter("classify.noise_activities").inc(
                    int(final.data["is_noise"].sum())
                )
            self.on_rows(final, np.concatenate(seq))
        self._prune_intervals(cursor)
        if n_w:
            self._prune_history(cursor)

    def _prune_intervals(self, cursor: int) -> None:
        """Drop the depth-0 intervals no pending or future window can
        contain."""
        wd = self._windows.data
        k0 = self._k0.data
        if len(k0):
            # A pending window, or a future one (from an open segment, or
            # starting at or after the cursor), is all an interval can be
            # nested in.
            segments = self._tracker.open_windows()
            pending = ~self._w_done
            if segments or pending.any():
                horizon = _by_cpu(segments, cursor)
                np.minimum.at(
                    horizon, wd["cpu"][pending], wd["start"][pending]
                )
                keep = k0["start"] >= horizon[k0["cpu"]]
                if not keep.all():
                    self._k0 = self._k0.take(keep)
            else:
                self._k0 = ActivityTable.empty(meta=self.meta)

    def _prune_history(self, cursor: int) -> None:
        """Drop the done windows no later classification can select.

        Rows still to classify start at or after the cursor or their
        CPU's oldest open frame; each needs the last window starting at or
        before it.  A done window is dead once a later window on its CPU
        also starts at or before that horizon.  (Held rows need no more:
        their covering window is the open segment's.)
        """
        wd = self._windows.data
        horizon = _by_cpu(self._walker.open_starts(), cursor)
        order = np.lexsort((wd["start"], wd["cpu"]))
        cpu = wd["cpu"][order]
        start = wd["start"][order]
        dead = np.zeros(len(order), dtype=bool)
        dead[:-1] = (cpu[1:] == cpu[:-1]) & (start[1:] <= horizon[cpu[:-1]])
        dead &= self._w_done[order]
        if dead.any():
            keep = np.ones(len(wd), dtype=bool)
            keep[order[dead]] = False
            self._windows = self._windows.take(keep)
            self._w_seq = self._w_seq[keep]
            self._w_done = self._w_done[keep]

    # ------------------------------------------------------------------
    @property
    def cursor(self) -> int:
        """Highest processed boundary (0 before the first): every record
        below it is done."""
        return self._cursor

    def markers(self) -> np.ndarray:
        """Processed ``MARKER`` records, in canonical order."""
        if not self._markers:
            return np.zeros(0, dtype=RECORD_DTYPE)
        return concat_rows(self._markers)

    def pending_floor(self) -> Optional[int]:
        """Smallest possible ``start`` of any not-yet-emitted row, or None
        when nothing is in flight.  Buffered records are not included; the
        caller combines this with its processing cursor."""
        starts = list(self._walker.open_starts().values())
        starts += self._tracker.open_windows().values()
        if len(self._held):
            starts.append(int(self._held.data["start"].min()))
        pending = self._windows.data["start"][~self._w_done]
        if len(pending):
            starts.append(int(pending.min()))
        return min(starts) if starts else None

    def pending_counts(self) -> Dict[str, int]:
        """Sizes of the carried state (observability/benchmarks)."""
        return {
            "records": self._pending_records,
            "open_frames": self._walker.open_count(),
            "open_segments": len(self._tracker.open_windows()),
            "pending_windows": int((~self._w_done).sum()),
            "pending_rows": len(self._held),
            "retained_intervals": len(self._k0),
            "history_windows": int(self._w_done.sum()),
        }
