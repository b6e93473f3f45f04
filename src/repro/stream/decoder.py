"""Incremental CTF packet decoding.

:class:`StreamDecoder` accepts raw trace bytes in arbitrary-size pieces —
as a collection daemon, socket, or pipe produces them — and yields each
:class:`~repro.tracing.ctf.Packet` the moment its last byte arrives.  It
checks each packet with the same helpers as the batch reader
(:func:`repro.tracing.ctf.packet_header` and
:func:`~repro.tracing.ctf.decode_packet`), so the two paths accept and
reject exactly the same byte streams with the same messages.

:func:`iter_packets_chronological` re-orders a *seekable* trace file into
packet ``begin_ts`` order with a header-only scan, so a streaming analysis
of an on-disk trace (whose packets are laid out CPU-major) never has to
buffer one CPU's whole stream while waiting for the others.
"""

from __future__ import annotations

from typing import BinaryIO, Iterator, List, Optional, Tuple

from repro.tracing.ctf import (
    Packet,
    Trace,
    TraceFormatError,
    _PACKET_HEADER,
    _TRACE_HEADER,
    _read_exact,
    decode_packet,
    packet_header,
    read_trace_header,
)


class StreamDecoder:
    """Incremental bytes -> packets, tolerant of partial feeds.

    Feed data with :meth:`feed`; it returns the packets completed by that
    piece (possibly none, possibly several).  After the trace header has
    been consumed the decoded shell is available as :attr:`trace`
    (``ncpus``/``start_ts``/``end_ts``, no packets).  :meth:`finish`
    raises :class:`TraceFormatError` if the stream ended mid-packet.
    """

    def __init__(self, expect_header: bool = True) -> None:
        self._buf = bytearray()
        self._need_header = expect_header
        #: Parsed trace header shell (no packets), once available.
        self.trace: Optional[Trace] = None
        self.packets_decoded = 0

    def feed(self, data: bytes) -> List[Packet]:
        """Consume one piece of the stream; return completed packets."""
        self._buf += data
        out: List[Packet] = []
        if self._need_header:
            if len(self._buf) < _TRACE_HEADER.size:
                return out
            # Delegate validation to the batch reader for identical errors.
            import io

            self.trace = read_trace_header(
                io.BytesIO(bytes(self._buf[: _TRACE_HEADER.size]))
            )
            del self._buf[: _TRACE_HEADER.size]
            self._need_header = False
        while True:
            packet = self._try_packet()
            if packet is None:
                return out
            out.append(packet)

    def _try_packet(self) -> Optional[Packet]:
        if len(self._buf) < _PACKET_HEADER.size:
            return None
        index = self.packets_decoded
        header = packet_header(self._buf, index)
        total = _PACKET_HEADER.size + header[5]  # header[5]: payload_bytes
        if len(self._buf) < total:
            return None
        payload = bytes(self._buf[_PACKET_HEADER.size:total])
        del self._buf[:total]
        packet = decode_packet(header, payload, index)
        self.packets_decoded += 1
        return packet

    def finish(self) -> None:
        """Declare end of stream; residual bytes mean truncation."""
        if self._need_header and self._buf:
            raise TraceFormatError("truncated trace header")
        if self._buf:
            raise TraceFormatError(
                f"truncated packet at end of stream (packet "
                f"#{self.packets_decoded}: {len(self._buf)} residual bytes)"
            )


def scan_packet_offsets(fp: BinaryIO) -> List[Tuple[int, int]]:
    """Header-only scan of a seekable stream positioned after the trace
    header: returns ``(begin_ts, offset)`` per packet without reading any
    payload bytes."""
    out: List[Tuple[int, int]] = []
    index = 0
    while True:
        offset = fp.tell()
        head = _read_exact(fp, _PACKET_HEADER.size)
        if not head:
            return out
        if len(head) < _PACKET_HEADER.size:
            raise TraceFormatError(
                f"truncated packet header (packet #{index}: "
                f"{len(head)} of {_PACKET_HEADER.size} bytes)"
            )
        _, _, _, _, _, payload_bytes, begin_ts, _ = packet_header(head, index)
        out.append((begin_ts, offset))
        fp.seek(payload_bytes, 1)
        index += 1


def iter_packets_chronological(fp: BinaryIO) -> Iterator[Packet]:
    """Yield a seekable trace stream's packets in ``begin_ts`` order.

    Trace files lay packets out CPU-major (all of cpu0, then cpu1, ...);
    fed in file order, a watermark-driven streaming analysis would have to
    buffer everything until the last CPU appears.  Two passes fix that:
    scan headers for ``(begin_ts, offset)``, then decode packets in
    timestamp order via seeks.  The sort is stable, so each CPU's packets
    keep their (chronological) file order.
    """
    from repro.tracing.ctf import iter_packets

    start = fp.tell()
    index = scan_packet_offsets(fp)
    index.sort(key=lambda item: item[0])
    for _, offset in index:
        fp.seek(offset)
        yield next(iter_packets(fp))
    fp.seek(start)
