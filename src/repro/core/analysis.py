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
handling included, that streaming analysis runs per window.  Everything
is computed from that columnar :class:`ActivityTable` (``analysis.table``)
with masked numpy reductions; ``analysis.activities`` is the lazily
materialized object view for list-shaped consumers.

Noise totals (``total_noise_ns``, ``breakdown_ns``, ``noise_fraction``,
``per_cpu_noise_ns``, ...) are all read from one :class:`NoiseTotals` fold,
so they agree on the CPU universe: activities referencing ``cpu >= ncpus``
are excluded everywhere (with a ``RuntimeWarning`` at construction), and
the noise fraction's numerator sums exactly the CPUs its
``span_ns * ncpus`` denominator covers.  Streaming analysis folds the same
:class:`NoiseTotals` block by block.
"""

from __future__ import annotations

import warnings
from functools import cached_property
from typing import Dict, List, Optional, Union

import numpy as np

from repro import obs
from repro.core.engine import StreamEngine, canonical_order
from repro.core.model import (
    Activity,
    ActivityTable,
    BREAKDOWN_CATEGORIES,
    CATEGORY_CODE,
    CATEGORY_ORDER,
    NoiseCategory,
    PREEMPT_EVENT,
    TraceMeta,
    concat_rows,
    take_rows,
)
from repro.tracing.ctf import Trace
from repro.tracing.events import Ev, NAME_TO_EVENT, RECORD_DTYPE
from repro.util.stats import DurationStats, describe_durations

#: Name accepted for the scheduler-derived pseudo event.
PREEMPT_NAME = "preemption"


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
    ``np.add.at`` over the expanded (activity, quantum) segments.  The
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
    if not m.any():
        return out
    starts = d["start"][m]
    ends = d["end"][m]
    density = d["self_ns"][m] / np.maximum(d["total_ns"][m], 1)
    first = np.maximum(0, (starts - t0) // quantum_ns)
    last = np.minimum(n - 1, (ends - 1 - t0) // quantum_ns)
    k = np.maximum(0, last - first + 1)
    total = int(k.sum())
    if total == 0:
        return out
    idx = np.repeat(np.arange(len(k)), k)
    run_base = np.repeat(np.cumsum(k) - k, k)
    q = first[idx] + (np.arange(total) - run_base)
    q_begin = t0 + q * quantum_ns
    overlap = np.minimum(ends[idx], q_begin + quantum_ns) - np.maximum(
        starts[idx], q_begin
    )
    np.maximum(overlap, 0, out=overlap)
    np.add.at(out, q, overlap * density[idx])
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


class DerivedQueries:
    """The queries both analysis facades answer from their
    :class:`NoiseTotals` (the ``_noise_totals()`` hook), ``span_ns`` and
    ``ncpus`` — shared by :class:`NoiseAnalysis` and
    :class:`~repro.stream.analysis.StreamingAnalysis`.  Each reads the
    hook first, so an unfinished stream raises before any arithmetic.

    Keys come out in one order on both sides: the breakdown categories
    first, then any other category present, by ascending code.
    """

    span_ns: int
    ncpus: int

    def _noise_totals(self) -> NoiseTotals:
        """The facade's folded totals (a stream raises until finished)."""
        raise NotImplementedError

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
            for cpu in np.unique(cpus).tolist():
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
        self._activities: Optional[List[Activity]] = None
        self._stats_by_event: Dict[bool, Dict[str, DurationStats]] = {}

    def _noise_totals(self) -> NoiseTotals:
        return self._totals

    @cached_property
    def records(self) -> np.ndarray:
        """Every record, time-sorted (ties by CPU, then per-CPU order).

        The engine works on CPU-major blocks; this stable time sort of
        the block is done the first time it is read."""
        block, self._block = self._block, None
        return take_rows(block, block["time"].argsort(kind="stable"))

    @property
    def activities(self) -> List[Activity]:
        """Object view of the table (materialized lazily, then cached)."""
        if self._activities is None:
            self._activities = self.table.rows()
        return self._activities

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
    # Tables (paper Tables I-VI shape)
    # ------------------------------------------------------------------
    def stats(
        self,
        event: Union[int, str],
        noise_only: bool = False,
    ) -> DurationStats:
        """One ``(freq, avg, max, min)`` row; freq is per CPU-second."""
        durations = self.durations(event, noise_only=noise_only)
        return describe_durations(durations, self.span_ns, cpus=self.ncpus)

    def stats_by_event(self, noise_only: bool = True) -> Dict[str, DurationStats]:
        """Stats for every activity type present in the trace, keyed by
        display name in sorted order.

        Computed once per ``noise_only`` value (the analysis does not
        change after construction); each call returns a fresh dict.
        """
        key = bool(noise_only)
        stats = self._stats_by_event.get(key)
        if stats is None:
            stats = self._stats_by_event[key] = self._group_stats(key)
        return dict(stats)

    def _group_stats(self, noise_only: bool) -> Dict[str, DurationStats]:
        d = self.table.data
        m = ~d["truncated"]
        if noise_only:
            m &= d["is_noise"]
        names, label = self.table.name_groups(m)
        if not names:
            return {}
        # Stable: each group keeps table row order, which the float mean
        # and std of describe_durations depend on.
        order = np.argsort(label, kind="stable")
        counts = np.bincount(label, minlength=len(names))
        chunks = np.split(d["self_ns"][m][order], np.cumsum(counts)[:-1])
        return {
            name: describe_durations(values, self.span_ns, cpus=self.ncpus)
            for name, values in zip(names, chunks)
        }

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
