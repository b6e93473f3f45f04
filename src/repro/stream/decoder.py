"""Packet decoding for the streaming analysis.

:class:`StreamDecoder` is :class:`repro.tracing.ctf.StreamDecoder`, the one
trace reader, re-exported: it accepts raw trace bytes in arbitrary-size
pieces — as a collection daemon, socket, or pipe produces them — and
yields each :class:`~repro.tracing.ctf.Packet` the moment its last byte
arrives.  ``Trace.from_bytes`` and ``Trace.read`` run the same decoder, so
batch and streaming reads raise the same :class:`TraceFormatError` on the
same bytes.

:func:`iter_packets_chronological` re-orders a *seekable* trace file into
packet ``begin_ts`` order with a header-only scan, so a streaming analysis
of an on-disk trace (whose packets are laid out CPU-major) never has to
buffer one CPU's whole stream while waiting for the others.  It checks
headers and payloads with the decoder's helpers and words a truncated file
the way the decoder does.
"""

from __future__ import annotations

import io
from typing import BinaryIO, Iterator, List, Tuple

from repro.tracing.ctf import (
    Packet,
    StreamDecoder,
    _PACKET_HEADER,
    decode_packet,
    packet_header,
    truncation_error,
)

__all__ = ["StreamDecoder", "iter_packets_chronological"]


def scan_packet_offsets(fp: BinaryIO) -> List[Tuple[int, int, int]]:
    """Header-only scan of a seekable stream positioned after the trace
    header: returns ``(begin_ts, index, offset)`` per packet without
    reading any payload bytes.  A packet cut short by the end of the
    stream raises the decoder's truncation error."""
    out: List[Tuple[int, int, int]] = []
    offset = fp.tell()
    end = fp.seek(0, io.SEEK_END)
    fp.seek(offset)
    while offset < end:
        index = len(out)
        head = fp.read(_PACKET_HEADER.size)
        if len(head) < _PACKET_HEADER.size:
            raise truncation_error(head, index)
        _, _, _, _, _, payload_bytes, begin_ts, _ = packet_header(head, index)
        stop = offset + _PACKET_HEADER.size + payload_bytes
        if stop > end:
            raise truncation_error(head + fp.read(), index)
        out.append((begin_ts, index, offset))
        offset = fp.seek(stop)
    return out


def iter_packets_chronological(fp: BinaryIO) -> Iterator[Packet]:
    """Yield a seekable trace stream's packets in ``begin_ts`` order.

    Trace files lay packets out CPU-major (all of cpu0, then cpu1, ...);
    fed in file order, a watermark-driven streaming analysis would have to
    buffer everything until the last CPU appears.  Two passes fix that:
    scan headers for ``(begin_ts, offset)``, then decode packets in
    timestamp order via seeks.  The sort is stable, so each CPU's packets
    keep their (chronological) file order.
    """
    start = fp.tell()
    packets = scan_packet_offsets(fp)
    packets.sort(key=lambda item: item[0])
    for _, index, offset in packets:
        fp.seek(offset)
        header = packet_header(fp.read(_PACKET_HEADER.size), index)
        yield decode_packet(header, fp.read(header[5]), index)
    fp.seek(start)
