"""Streaming analysis facade: ``NoiseAnalysis`` answers in bounded memory.

:class:`StreamingAnalysis` wires the three streaming stages together —
decode (:class:`~repro.stream.decoder.StreamDecoder` or packet objects
straight from the tracer), process
(:class:`~repro.core.engine.StreamEngine`), merge
(:class:`~repro.stream.window.WindowMerger`) — behind the same query
surface the batch :class:`~repro.core.analysis.NoiseAnalysis` offers.
Every shared query returns bit-identical results on the same trace
(``std`` matches to float precision; see :mod:`repro.stream`).

Progress is driven by a per-CPU watermark: each packet raises its CPU's
watermark to the packet ``end_ts`` (ring-buffer chronology guarantees no
later record on that CPU precedes it), and every record below the minimum
watermark is processed as one engine block, with or without
``window_ns``.  Windows are output cuts: the merger slices the sealed
rows into per-window chunks behind the engine's pending floor, so the
engine schedule does not depend on them.  Until every CPU has produced a
packet there is no global watermark and records are only buffered; feed
an on-disk CPU-major file through
:func:`~repro.stream.decoder.iter_packets_chronological` (as
:meth:`analyze_file` does) so the watermark advances steadily.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.core.analysis import (
    DerivedQueries,
    NoiseTotals,
    _resolve_event,
    marker_rows,
)
from repro.core.engine import StreamEngine
from repro.core.model import ActivityTable, TraceMeta
from repro.stream.decoder import StreamDecoder, iter_packets_chronological
from repro.stream.window import WindowMerger
from repro.tracing.ctf import Packet, Trace, read_trace_header
from repro.util.stats import DurationStats

try:
    import resource as _resource
except ImportError:  # pragma: no cover - resource is POSIX-only
    _resource = None


def _peak_rss_kb() -> Optional[int]:
    if _resource is None:
        return None
    return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)


class StreamingAnalysis(DerivedQueries):
    """Incremental lttng-noise analysis of a trace being produced."""

    def __init__(
        self,
        ncpus: int,
        start_ts: int,
        end_ts: Optional[int] = None,
        meta: Optional[TraceMeta] = None,
        span_ns: Optional[int] = None,
        window_ns: Optional[int] = None,
        quanta: Tuple[int, ...] = (),
        on_chunk: Optional[Callable[[int, ActivityTable], None]] = None,
        strict: bool = False,
    ) -> None:
        self.ncpus = int(ncpus)
        self.start_ts = int(start_ts)
        if span_ns is not None:
            end_ts = self.start_ts + span_ns
        #: None until finish() in live mode.
        self.end_ts = None if end_ts is None else int(end_ts)
        self.span_ns = (
            max(1, self.end_ts - self.start_ts)
            if self.end_ts is not None
            else None
        )
        self.meta = meta if meta is not None else TraceMeta()
        self.window_ns = window_ns

        self._merger = WindowMerger(
            self.ncpus,
            self.start_ts,
            self.meta,
            window_ns=window_ns,
            quanta=tuple(int(q) for q in quanta),
            end_ts=self.end_ts,
            on_chunk=on_chunk,
        )
        self._engine = StreamEngine(
            self.meta, on_rows=self._merger.add, strict=strict
        )
        self._wm: Dict[int, int] = {}
        self._finished = False
        self.packets_fed = 0

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def feed_packet(self, packet: Packet) -> None:
        """Consume one decoded packet (any CPU, per-CPU time order)."""
        if self._finished:
            raise RuntimeError("stream already finished")
        self.packets_fed += 1
        self._engine.feed_packet(packet)
        wm = self._wm.get(packet.cpu)
        if wm is None or packet.end_ts > wm:
            self._wm[packet.cpu] = packet.end_ts
        if obs.enabled():
            obs.counter("stream.packets").inc()
        self._advance()

    def finish(self, end_ts: Optional[int] = None) -> "StreamingAnalysis":
        """End of stream: process everything left and freeze results."""
        if self._finished:
            return self
        self._finished = True
        if end_ts is not None:
            self.end_ts = int(end_ts)
        if self.end_ts is None:
            # Live stream without an explicit end: the trace observably
            # ends at the highest packet end_ts seen.
            self.end_ts = max(self._wm.values(), default=self.start_ts)
        self.span_ns = max(1, self.end_ts - self.start_ts)
        self._engine.finish(self.end_ts)
        self._merger.finish(self.end_ts)
        self._warn_out_of_range()
        self._obs_flush()
        return self

    # ------------------------------------------------------------------
    @classmethod
    def from_trace(
        cls,
        trace: Trace,
        meta: Optional[TraceMeta] = None,
        span_ns: Optional[int] = None,
        ncpus: Optional[int] = None,
        **kwargs: object,
    ) -> "StreamingAnalysis":
        """Stream an in-memory trace, packet by packet in ``begin_ts``
        order (stable, so each CPU's packets keep their chronology)."""
        sa = cls(
            ncpus=ncpus if ncpus is not None else trace.ncpus,
            start_ts=trace.start_ts,
            end_ts=trace.end_ts,
            meta=meta,
            span_ns=span_ns,
            **kwargs,
        )
        for packet in sorted(trace.packets, key=lambda p: p.begin_ts):
            sa.feed_packet(packet)
        return sa.finish()

    @classmethod
    def analyze_file(
        cls,
        path: str,
        meta: Optional[TraceMeta] = None,
        span_ns: Optional[int] = None,
        ncpus: Optional[int] = None,
        **kwargs: object,
    ) -> "StreamingAnalysis":
        """Stream a trace file without loading it: header-only scan, then
        packets decoded one at a time in chronological order."""
        with open(path, "rb") as fp:
            shell = read_trace_header(fp)
            sa = cls(
                ncpus=ncpus if ncpus is not None else shell.ncpus,
                start_ts=shell.start_ts,
                end_ts=shell.end_ts,
                meta=meta,
                span_ns=span_ns,
                **kwargs,
            )
            for packet in iter_packets_chronological(fp):
                sa.feed_packet(packet)
        return sa.finish()

    @classmethod
    def from_byte_stream(
        cls,
        pieces: Iterable[bytes],
        meta: Optional[TraceMeta] = None,
        span_ns: Optional[int] = None,
        ncpus: Optional[int] = None,
        **kwargs: object,
    ) -> "StreamingAnalysis":
        """Stream raw trace bytes arriving in arbitrary pieces (a socket,
        a pipe from the collection daemon)."""
        decoder = StreamDecoder()
        sa: Optional[StreamingAnalysis] = None
        for data in pieces:
            packets = decoder.feed(data)
            if sa is None and decoder.trace is not None:
                shell = decoder.trace
                sa = cls(
                    ncpus=ncpus if ncpus is not None else shell.ncpus,
                    start_ts=shell.start_ts,
                    end_ts=shell.end_ts,
                    meta=meta,
                    span_ns=span_ns,
                    **kwargs,
                )
            for packet in packets:
                sa.feed_packet(packet)
        decoder.finish()
        if sa is None:
            import io

            read_trace_header(io.BytesIO(b""))  # raises the batch error
        return sa.finish()

    # ------------------------------------------------------------------
    # Watermark-driven processing
    # ------------------------------------------------------------------
    def _global_watermark(self) -> Optional[int]:
        wm: Optional[int] = None
        for cpu in range(self.ncpus):
            v = self._wm.get(cpu)
            if v is None:
                return None
            if wm is None or v < wm:
                wm = v
        for cpu, v in self._wm.items():
            if cpu >= self.ncpus and v < wm:
                wm = v
        return wm

    def _advance(self) -> None:
        wm = self._global_watermark()
        if wm is None:
            return
        if self.window_ns is None:
            self._process(wm)
            return
        with obs.span("stream.window"):
            self._process(wm)

    def _process(self, boundary: int) -> None:
        n = len(self._engine.process_to(boundary))
        floor = self._engine.cursor
        pending = self._engine.pending_floor()
        if pending is not None and pending < floor:
            floor = pending
        self._merger.seal_to(floor)
        if obs.enabled():
            if n:
                obs.counter("stream.records").inc(n)
            obs.gauge("stream.floor_ns").set(floor)
            self._obs_flush()

    def _obs_flush(self) -> None:
        if not obs.enabled():
            return
        counts = self._engine.pending_counts()
        obs.gauge("stream.pending_records").set(counts["records"])
        obs.gauge("stream.pending_rows").set(
            counts["pending_rows"] + counts["pending_windows"]
        )
        obs.gauge("stream.open_frames").set(counts["open_frames"])
        peak = _peak_rss_kb()
        if peak is not None:
            obs.gauge("stream.peak_rss_kb").set(peak)

    # ------------------------------------------------------------------
    # Query surface (mirrors NoiseAnalysis; results are bit-identical).
    # The noise totals and the queries built on them come from
    # DerivedQueries, reading the merger's NoiseTotals.
    # ------------------------------------------------------------------
    def _require_finished(self) -> None:
        if not self._finished:
            raise RuntimeError("finish() the stream before querying results")

    def _noise_totals(self) -> NoiseTotals:
        self._require_finished()
        return self._merger.totals

    def stats(
        self, event: Union[int, str], noise_only: bool = False
    ) -> DurationStats:
        """One ``(freq, avg, max, min)`` row; freq is per CPU-second."""
        self._require_finished()
        resolved = _resolve_event(event)
        return self._merger.moments_for_event(resolved, noise_only).describe(
            self.span_ns, self.ncpus
        )

    def stats_by_event(
        self, noise_only: bool = True
    ) -> Dict[str, DurationStats]:
        """Stats for every activity type present in the trace."""
        self._require_finished()
        return {
            name: moments.describe(self.span_ns, self.ncpus)
            for name, moments in self._merger.moments_by_name(
                noise_only
            ).items()
        }

    def markers(self) -> np.ndarray:
        """Workload marker point events as ``(time, pid, arg)`` rows."""
        self._require_finished()
        return marker_rows(self._engine.markers())

    def noise_timeline(
        self,
        quantum_ns: int,
        cpu: Optional[int] = None,
        t0: Optional[int] = None,
        t1: Optional[int] = None,
    ) -> np.ndarray:
        """Noise nanoseconds per quantum for a quantum configured at
        construction.  Streaming timelines are precomputed full-span,
        all-CPU series; per-CPU or custom-range views need the batch
        analysis."""
        self._require_finished()
        if cpu is not None or t0 is not None or t1 is not None:
            raise ValueError(
                "streaming timelines support only the full-span, all-CPU "
                "series (cpu=t0=t1=None)"
            )
        return self._merger.timeline(quantum_ns)

    # ------------------------------------------------------------------
    # Streaming-specific accessors
    # ------------------------------------------------------------------
    @property
    def windows_emitted(self) -> int:
        return self._merger.windows_emitted

    @property
    def records_processed(self) -> int:
        return self._engine.records_processed

    @property
    def activities_total(self) -> int:
        return self._merger.rows

    def pending_counts(self) -> Dict[str, int]:
        return self._engine.pending_counts()
