"""Streaming windowed analysis: decode and analyze a trace as it is
produced, in bounded memory.

The batch pipeline (:class:`repro.core.analysis.NoiseAnalysis`) needs the
whole trace in memory before the first answer.  This package computes the
same answers incrementally, packet by packet:

* :class:`StreamDecoder` — incremental bytes -> :class:`Packet` decoding,
  tolerant of arbitrary feed boundaries (a packet may arrive split across
  many reads); it is :class:`repro.tracing.ctf.StreamDecoder`, the reader
  behind ``Trace.from_bytes`` too, so batch and stream reject damaged
  bytes with the same message;
* :class:`StreamEngine` (from :mod:`repro.core.engine`, the engine
  batch analysis runs as one block) — cuts the records into
  canonical-order blocks and runs the analysis kernels (ENTRY/EXIT
  pairing, preemption windows, nested-time subtraction, noise
  classification) on each, carrying only open state across block
  boundaries and emitting every activity row once it is final;
* :class:`WindowMerger` — folds the row blocks into exact integer
  aggregates (the per-event moments and noise totals batch analysis folds
  once, through the same kernels), per-quantum timeline bins, and
  per-window :class:`ActivityTable` chunks.  A bin is sealed once no
  in-flight activity can still touch it, by the batch timeline kernel
  over the held noise rows in canonical order;
* :class:`StreamingAnalysis` — the facade mirroring ``NoiseAnalysis``'s
  query surface (stats, breakdown, noise fraction, timelines) with results
  bit-identical to batch analysis of the same trace, per-event ``std``
  included: both facades derive every table row from the same exact
  integer moments.

See ``docs/streaming.md`` for the window/watermark design and the exact
bit-identity argument.
"""

from repro.core.engine import StreamEngine
from repro.stream.analysis import StreamingAnalysis
from repro.stream.decoder import StreamDecoder, iter_packets_chronological
from repro.stream.window import WindowMerger

__all__ = [
    "StreamDecoder",
    "StreamEngine",
    "StreamingAnalysis",
    "WindowMerger",
    "iter_packets_chronological",
]
