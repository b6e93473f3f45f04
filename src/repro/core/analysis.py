"""The analysis facade: from a trace to the paper's numbers.

:class:`NoiseAnalysis` reconstructs activities, classifies noise, and
answers the questions the paper's tables and figures ask:

* per-event frequency/duration statistics (Tables I-VI) — frequencies are
  per CPU-second, durations are *self* time so nesting never double counts;
* the five-category noise breakdown (Figure 3);
* duration arrays for histograms (Figures 4, 6, 8);
* per-quantum noise timelines (the synthetic chart / FTQ comparison);
* raw activity access for traces and filters.

The table comes from one :class:`~repro.core.engine.StreamEngine` pass
that processes the whole trace as one block — the same engine, gap
handling included, that streaming analysis runs once per watermark
advance.  Everything is computed from that columnar :class:`ActivityTable`
(``analysis.table``) with masked numpy reductions; ``analysis.activities``
is the lazily materialized object view for list-shaped consumers.

Noise totals (``total_noise_ns``, ``breakdown_ns``, ``noise_fraction``,
``per_cpu_noise_ns``, ...) are all read from one :class:`NoiseTotals` fold,
so they agree on the CPU universe: activities referencing ``cpu >= ncpus``
are excluded everywhere (with a ``RuntimeWarning`` at construction), and
the noise fraction's numerator sums exactly the CPUs its
``span_ns * ncpus`` denominator covers.  Per-event statistics
(``stats``, ``stats_by_event``) are all read from one
:class:`EventMoments` fold of exact integer moments.  Streaming analysis
folds the same :class:`NoiseTotals` and :class:`EventMoments` block by
block, and :class:`DerivedQueries` answers every one of these queries
for both facades.
"""

from __future__ import annotations

import warnings
from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.core.engine import StreamEngine, canonical_order, is_window
from repro.core.model import (
    Activity,
    ActivityTable,
    BREAKDOWN_CATEGORIES,
    CATEGORY_CODE,
    CATEGORY_ORDER,
    NoiseCategory,
    PREEMPT_EVENT,
    TraceMeta,
    activity_name,
    concat_rows,
    take_rows,
)
from repro.tracing.ctf import Trace
from repro.tracing.events import Ev, NAME_TO_EVENT, RECORD_DTYPE
from repro.util.stats import DurationStats, square_sums, stats_from_moments

#: Name accepted for the scheduler-derived pseudo event.
PREEMPT_NAME = "preemption"


def bin_overlaps(
    starts: np.ndarray, ends: np.ndarray, edges: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand intervals ``[starts[i], ends[i])`` over the bins
    ``[edges[b], edges[b + 1])``: one ``(row, bin, overlap ns)`` triple
    for every bin an interval reaches, row-major in input order with
    bins ascending.  The bin range of an interval is read from the edges
    themselves, so uneven and empty bins bin exactly; an interval is
    clipped to the first and last bin, and no overlap is negative."""
    n = len(edges) - 1
    first = np.maximum(edges.searchsorted(starts, "right") - 1, 0)
    last = np.minimum(edges.searchsorted(ends, "left") - 1, n - 1)
    k = np.maximum(0, last - first + 1)
    row = np.repeat(np.arange(len(k)), k)
    q = first[row] + np.arange(len(row)) - np.repeat(np.cumsum(k) - k, k)
    overlap = np.minimum(ends[row], edges[q + 1]) - np.maximum(
        starts[row], edges[q])
    return row, q, np.maximum(overlap, 0)


def binned_noise_ns(
    table: ActivityTable,
    quantum_ns: int,
    t0: int,
    t1: int,
    cpu: Optional[int] = None,
) -> np.ndarray:
    """Noise nanoseconds per quantum over ``[t0, t1)``.

    Each noise activity's self time is distributed proportionally over its
    wall interval (density ``self_ns / total_ns``), then binned with one
    ``np.add.at`` over the :func:`bin_overlaps` expansion.  The
    accumulation runs activity-major in table order, matching the reference
    double loop bit for bit.
    """
    if quantum_ns <= 0:
        raise ValueError("quantum must be positive")
    n = max(1, -(-(t1 - t0) // quantum_ns))
    out = np.zeros(n, dtype=np.float64)
    d = table.data
    m = d["is_noise"] & (d["end"] > t0) & (d["start"] < t1)
    if cpu is not None:
        m &= d["cpu"] == cpu
    density = d["self_ns"][m] / np.maximum(d["total_ns"][m], 1)
    row, q, overlap = bin_overlaps(
        d["start"][m], d["end"][m],
        t0 + quantum_ns * np.arange(n + 1, dtype=np.int64),
    )
    np.add.at(out, q, overlap * density[row])
    return out


def marker_rows(records: np.ndarray) -> np.ndarray:
    """The ``MARKER`` point events of ``records`` as ``(time, pid, arg)``
    int64 rows, in record order."""
    chosen = records[records["event"] == int(Ev.MARKER)]
    out = np.zeros((len(chosen), 3), dtype=np.int64)
    out[:, 0] = chosen["time"]
    out[:, 1] = chosen["pid"]
    out[:, 2] = chosen["arg"].astype(np.int64)
    return out


class NoiseTotals:
    """Exact noise nanoseconds per ``(cpu, category)``, the one fold
    behind every noise total.

    Noise rows on a CPU below ``ncpus`` add their self time to ``ns``
    (int64, so the totals do not depend on fold order) and mark ``seen``
    (a pair that had a noise row keeps its key even with a zero total);
    rows on other CPUs only count in ``out_of_range``.
    """

    __slots__ = ("ns", "seen", "out_of_range")

    def __init__(self, ncpus: int) -> None:
        self.ns = np.zeros((ncpus, len(CATEGORY_ORDER)), dtype=np.int64)
        self.seen = np.zeros(self.ns.shape, dtype=bool)
        self.out_of_range = 0

    def add(self, rows: np.ndarray) -> None:
        """Fold activity rows (``ACTIVITY_DTYPE``) into the totals."""
        inside = rows["cpu"] < len(self.ns)
        self.out_of_range += len(rows) - int(inside.sum())
        m = rows["is_noise"] & inside
        if m.any():
            # One flat (cpu, category) key: half the cost of a 2-D index.
            key = rows["cpu"][m] * self.ns.shape[1] + rows["category"][m]
            np.add.at(self.ns.reshape(-1), key, rows["self_ns"][m])
            self.seen.reshape(-1)[key] = True


class Moments:
    """Exact integer moments of one duration population: count, sum,
    minimum, maximum and sum of squares, as Python ints."""

    __slots__ = ("count", "total", "mn", "mx", "sq")

    def __init__(self) -> None:
        self.count = self.total = self.mn = self.mx = self.sq = 0

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
        """The table row of this population
        (:func:`~repro.util.stats.stats_from_moments`)."""
        return stats_from_moments(
            self.count, self.total, self.mn, self.mx, self.sq, span_ns, cpus
        )


def fold_moments(
    all_moments: Dict[Tuple[int, int], Moments],
    noise_moments: Dict[Tuple[int, int], Moments],
    events: np.ndarray,
    pids: np.ndarray,
    noise: np.ndarray,
    values: np.ndarray,
) -> None:
    """Fold int64 ``values`` into the moments keyed by ``(event, pid)`` —
    every value into ``all_moments``, noise values also into
    ``noise_moments``; keys new to a table enter it in ``(event, pid)``
    order, pid -1 first.

    Rows group on one integer key, ``2 * event + noise`` (event ids are
    non-negative) plus, for a pid other than -1, its dense rank times a
    stride past every such value, sorted in the narrowest unsigned dtype
    that holds it (a radix sort up to 16 bits).  ``reduceat`` takes each
    group's moments; integer sums do not depend on the order within a
    group.
    """
    if not len(values):
        return
    key = events.astype(np.int64)
    key <<= 1
    key += noise
    has_pid = pids != -1
    if has_pid.any():
        rank = np.unique(pids[has_pid], return_inverse=True)[1]
        key[has_pid] += (rank + 1) * (int(key.max()) + 1)
    top = int(key.max())
    order = key.astype(np.min_scalar_type(top)).argsort(kind="stable")
    key = key[order]
    values = values[order]
    new = np.empty(len(key), dtype=bool)
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    heads = np.flatnonzero(new)
    first = order[heads]
    counts = np.diff(heads, append=len(values)).tolist()
    totals = np.add.reduceat(values, heads).tolist()
    mins = np.minimum.reduceat(values, heads).tolist()
    maxs = np.maximum.reduceat(values, heads).tolist()
    sqs = square_sums(values, heads, min(mins), max(maxs))
    for key_pair, is_noise, moments in sorted(zip(
        zip(events[first].tolist(), pids[first].tolist()),
        noise[first].tolist(),
        zip(counts, totals, mins, maxs, sqs),
    )):
        tables = (all_moments, noise_moments) if is_noise else (all_moments,)
        for table in tables:
            acc = table.get(key_pair)
            if acc is None:
                acc = table[key_pair] = Moments()
            acc.fold(*moments)


class EventMoments:
    """Exact duration moments per ``(event, pid)`` key, the one fold
    behind every per-event statistic.

    ``pid`` is the displacing task for a preemption window and -1 for a
    kernel activity.  ``_all`` holds every activity that was not
    truncated, ``_noise`` the noise activities among them.  Batch
    analysis folds its finished table once; the streaming
    :class:`~repro.stream.window.WindowMerger` folds each block, and the
    integer moments do not depend on how the rows were split.
    """

    def __init__(self, meta: TraceMeta) -> None:
        self.meta = meta
        self._all: Dict[Tuple[int, int], Moments] = {}
        self._noise: Dict[Tuple[int, int], Moments] = {}

    def fold_rows(self, rows: np.ndarray) -> None:
        """Fold activity rows (``ACTIVITY_DTYPE``) into the moments."""
        kept = ~rows["truncated"]
        if not kept.any():
            return
        events = rows["event"][kept]
        fold_moments(
            self._all, self._noise, events,
            np.where(is_window(events), rows["pid"][kept], -1),
            rows["is_noise"][kept], rows["self_ns"][kept],
        )

    def moments_for_event(
        self, event: Optional[int], noise_only: bool
    ) -> Moments:
        table = self._noise if noise_only else self._all
        merged = Moments()
        for (ev, _), acc in table.items():
            if ev == event:
                merged.merge(acc)
        return merged

    def moments_by_name(self, noise_only: bool) -> Dict[str, Moments]:
        """Population moments grouped by display name, sorted by name
        (both preemption pseudo-events of one daemon, and daemons called
        alike, share one name)."""
        table = self._noise if noise_only else self._all
        out: Dict[str, Moments] = {}
        for (ev, pid), acc in table.items():
            name = activity_name(ev, pid, self.meta)
            merged = out.get(name)
            if merged is None:
                out[name] = merged = Moments()
            merged.merge(acc)
        return {name: out[name] for name in sorted(out)}


class DerivedQueries:
    """The queries both analysis facades answer from their
    :class:`NoiseTotals` (the ``_noise_totals()`` hook), their
    :class:`EventMoments` (the ``_moments()`` hook), ``span_ns`` and
    ``ncpus`` — shared by :class:`NoiseAnalysis` and
    :class:`~repro.stream.analysis.StreamingAnalysis`.  Each reads a
    hook first, so an unfinished stream raises before any arithmetic.

    Keys come out in one order on both sides: the breakdown categories
    first, then any other category present, by ascending code.
    """

    span_ns: int
    ncpus: int

    def _noise_totals(self) -> NoiseTotals:
        """The facade's folded totals (a stream raises until finished)."""
        raise NotImplementedError

    def _moments(self) -> EventMoments:
        """The facade's per-event moments (a stream raises until
        finished)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Tables (paper Tables I-VI shape)
    # ------------------------------------------------------------------
    def stats(
        self, event: Union[int, str], noise_only: bool = False
    ) -> DurationStats:
        """One ``(freq, avg, max, min)`` row of one activity type
        (truncated activities excluded); freq is per CPU-second."""
        moments = self._moments()
        return moments.moments_for_event(
            _resolve_event(event), noise_only
        ).describe(self.span_ns, self.ncpus)

    def stats_by_event(
        self, noise_only: bool = True
    ) -> Dict[str, DurationStats]:
        """Stats for every activity type present in the trace (truncated
        activities excluded), keyed by display name in sorted order; a
        fresh dict on every call."""
        return {
            name: moments.describe(self.span_ns, self.ncpus)
            for name, moments in self._moments().moments_by_name(
                noise_only
            ).items()
        }

    def breakdown_ns(self) -> Dict[NoiseCategory, int]:
        """Total noise self-time per category (truncated included)."""
        totals = self._noise_totals()
        per_cat = totals.ns.sum(axis=0)
        out = {c: int(per_cat[CATEGORY_CODE[c]]) for c in BREAKDOWN_CATEGORIES}
        for code in totals.seen.any(axis=0).nonzero()[0].tolist():
            out[CATEGORY_ORDER[code]] = int(per_cat[code])
        return out

    def total_noise_ns(self) -> int:
        return int(self._noise_totals().ns.sum())

    def per_cpu_noise_ns(self) -> np.ndarray:
        """Total noise per CPU — where the jitter actually lands."""
        return self._noise_totals().ns.sum(axis=1)

    def per_cpu_breakdown(self) -> Dict[int, Dict[NoiseCategory, int]]:
        """Per-CPU category totals (noise only)."""
        totals = self._noise_totals()
        out: Dict[int, Dict[NoiseCategory, int]] = {
            cpu: {c: 0 for c in BREAKDOWN_CATEGORIES}
            for cpu in range(self.ncpus)
        }
        cpus, codes = totals.seen.nonzero()
        for cpu, code in zip(cpus.tolist(), codes.tolist()):
            out[cpu][CATEGORY_ORDER[code]] = int(totals.ns[cpu, code])
        return out

    def breakdown_fractions(self) -> Dict[NoiseCategory, float]:
        totals = self.breakdown_ns()
        grand = sum(totals.values())
        if grand == 0:
            return {c: 0.0 for c in totals}
        return {c: v / grand for c, v in totals.items()}

    def noise_fraction(self) -> float:
        """Noise time as a fraction of total CPU time observed.

        Numerator and denominator cover the same universe: noise on the
        ``ncpus`` CPUs of the trace over ``span_ns`` (activities on CPUs
        beyond ``ncpus`` are excluded, matching :meth:`per_cpu_noise_ns`).
        """
        return self.total_noise_ns() / (self.span_ns * self.ncpus)

    def noise_imbalance(self) -> float:
        """Max/mean ratio of per-CPU noise: 1.0 = perfectly even.

        The paper's scalability argument is about *variation*: noise that
        lands unevenly (one CPU taking the interrupts, one rank near the
        rebalance victim) creates the stragglers collectives wait for.
        """
        per_cpu = self.per_cpu_noise_ns().astype(np.float64)
        mean = per_cpu.mean()
        if mean <= 0:
            return 1.0
        return float(per_cpu.max() / mean)

    def _warn_out_of_range(self) -> None:
        """Warn (from the facade's caller) about the activities that sit
        on CPUs the noise totals exclude."""
        count = self._noise_totals().out_of_range
        if not count:
            return
        if obs.enabled():
            obs.counter("analysis.out_of_range_cpu").inc(count)
        warnings.warn(
            f"{count} activities reference CPUs >= ncpus={self.ncpus}; "
            "they are excluded from noise totals",
            RuntimeWarning,
            stacklevel=3,
        )


class NoiseAnalysis(DerivedQueries):
    """Offline lttng-noise analysis of one recorded execution."""

    def __init__(
        self,
        trace: Union[Trace, np.ndarray],
        meta: Optional[TraceMeta] = None,
        span_ns: Optional[int] = None,
        ncpus: Optional[int] = None,
    ) -> None:
        if isinstance(trace, Trace):
            self.ncpus = ncpus if ncpus is not None else trace.ncpus
            self.start_ts = trace.start_ts
            self.end_ts = trace.end_ts
        else:
            records = np.asarray(trace, dtype=RECORD_DTYPE)
            self.ncpus = ncpus if ncpus is not None else (
                int(records["cpu"].max()) + 1 if len(records) else 1
            )
            self.start_ts = int(records["time"].min()) if len(records) else 0
            self.end_ts = int(records["time"].max()) if len(records) else 0
        if span_ns is not None:
            self.end_ts = self.start_ts + span_ns
        self.span_ns = max(1, self.end_ts - self.start_ts)
        self.meta = meta if meta is not None else TraceMeta()

        blocks: List[np.ndarray] = []
        seqs: List[np.ndarray] = []

        def collect(block: ActivityTable, seq: np.ndarray) -> None:
            blocks.append(block.data)
            seqs.append(seq)

        engine = StreamEngine(self.meta, on_rows=collect)
        if isinstance(trace, Trace):
            # Packet order of StreamingAnalysis.from_trace.
            for packet in sorted(trace.packets, key=lambda p: p.begin_ts):
                engine.feed_packet(packet)
        else:
            cpus = records["cpu"]
            for cpu in np.flatnonzero(np.bincount(cpus)).tolist():
                engine.feed_records(cpu, records[cpus == cpu])
        n_records = engine.pending_counts()["records"]
        with obs.span("analysis", records=n_records):
            # CPU-major; ``records`` sorts it on first use.
            self._block: Optional[np.ndarray] = engine.process_to(None)
            engine.finish(self.end_ts)
            #: Every reconstructed activity as one columnar table,
            #: time-sorted and classified.
            self.table = ActivityTable.empty(meta=self.meta)
            if blocks:
                data = concat_rows(blocks)
                order = canonical_order(data, np.concatenate(seqs))
                self.table = ActivityTable(
                    take_rows(data, order), meta=self.meta
                )
        #: Number of records analyzed.
        self.records_processed = engine.records_processed
        self._markers = engine.markers()
        self._totals = NoiseTotals(self.ncpus)
        self._totals.add(self.table.data)
        self._warn_out_of_range()
        self._event_moments: Optional[EventMoments] = None

    def _noise_totals(self) -> NoiseTotals:
        return self._totals

    def _moments(self) -> EventMoments:
        """The table's per-event moments, folded on first use."""
        if self._event_moments is None:
            self._event_moments = EventMoments(self.meta)
            self._event_moments.fold_rows(self.table.data)
        return self._event_moments

    @cached_property
    def records(self) -> np.ndarray:
        """Every record, time-sorted (ties by CPU, then per-CPU order).

        The engine works on CPU-major blocks; this stable time sort of
        the block is done the first time it is read."""
        block, self._block = self._block, None
        return take_rows(block, block["time"].argsort(kind="stable"))

    def task_state_records(self) -> np.ndarray:
        """The ``TASK_STATE`` records, in the engine's block order when
        :attr:`records` has not sorted it yet.  :class:`TaskTimeline`
        sorts them by (pid, time) itself, and rows with equal (pid, time)
        are in (cpu, per-CPU) order in either order, so the timeline is
        the same without a sort of every record."""
        block = self.records if self._block is None else self._block
        return take_rows(block, block["event"] == int(Ev.TASK_STATE))

    @cached_property
    def activities(self) -> List[Activity]:
        """Object view of the table (materialized lazily, then cached)."""
        return self.table.rows()

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def select(
        self,
        event: Union[int, str, None] = None,
        category: Optional[NoiseCategory] = None,
        cpu: Optional[int] = None,
        noise_only: bool = False,
        include_truncated: bool = False,
    ) -> List[Activity]:
        """Filter activities; ``event`` accepts ids or kernel-style names."""
        return self.table.rows(
            self.table.mask(
                event=_resolve_event(event),
                category=category,
                cpu=cpu,
                noise_only=noise_only,
                include_truncated=include_truncated,
            )
        )

    def noise(self) -> List[Activity]:
        return self.table.rows(self.table.data["is_noise"])

    def durations(
        self,
        event: Union[int, str],
        cpu: Optional[int] = None,
        noise_only: bool = False,
    ) -> np.ndarray:
        """Self-time durations (ns) of one activity type, for histograms."""
        m = self.table.mask(
            event=_resolve_event(event),
            cpu=cpu,
            noise_only=noise_only,
            include_truncated=False,
        )
        return self.table.data["self_ns"][m].astype(np.int64)

    # ------------------------------------------------------------------
    # Timelines (synthetic chart inputs, FTQ comparison)
    # ------------------------------------------------------------------
    def markers(self) -> "np.ndarray":
        """Workload marker point events as ``(time, pid, arg)`` rows
        (phase changes, FTQ quantum marks, ...)."""
        return marker_rows(self._markers)

    def noise_timeline(
        self,
        quantum_ns: int,
        cpu: Optional[int] = None,
        t0: Optional[int] = None,
        t1: Optional[int] = None,
    ) -> np.ndarray:
        """Noise nanoseconds per quantum.

        Each activity's self time is distributed proportionally over its
        wall interval, then binned; exact for the (typical) activity that
        fits inside one quantum.
        """
        t0 = self.start_ts if t0 is None else t0
        t1 = self.end_ts if t1 is None else t1
        return binned_noise_ns(self.table, quantum_ns, t0, t1, cpu=cpu)

    def user_time_cumulative(self, cpu: int, t0: int, t1: int) -> "np.ndarray":
        """Breakpoints of cumulative *user* time on a CPU — FTQ's ruler.

        Returns an array of ``(wall_ts, user_ns)`` rows at every kernel
        activity boundary on the CPU, suitable for interpolation.
        """
        d = self.table.data
        m = (
            (d["cpu"] == cpu)
            & (d["depth"] == 0)
            & (d["end"] > t0)
            & (d["start"] < t1)
        )
        begins = np.maximum(d["start"][m], t0)
        ends = np.minimum(d["end"][m], t1)
        order = np.lexsort((ends, begins))
        marks = list(zip(begins[order].tolist(), ends[order].tolist()))
        # Merge overlaps (a tick nested inside a preemption window produces
        # two overlapping depth-0 intervals).
        merged: List[tuple] = []
        for begin, end in marks:
            if merged and begin <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((begin, end))
        rows = [(t0, 0)]
        user = 0
        cursor = t0
        for begin, end in merged:
            if begin > cursor:
                user += begin - cursor
                cursor = begin
            rows.append((begin, user))
            if end > cursor:
                cursor = end
            rows.append((cursor, user))
        if cursor < t1:
            user += t1 - cursor
        rows.append((t1, user))
        return np.array(rows, dtype=np.int64)


def _resolve_event(event: Union[int, str, None]) -> Optional[int]:
    if event is None:
        return None
    if isinstance(event, str):
        if event == PREEMPT_NAME:
            return PREEMPT_EVENT
        try:
            return NAME_TO_EVENT[event]
        except KeyError:
            raise ValueError(f"unknown event name: {event!r}") from None
    return int(event)
