"""Binary trace format (CTF-flavoured).

A trace is a *trace header* followed by a stream of *packets*; each packet is
one sub-buffer: a packet header plus densely packed 24-byte records.  The
layout is deliberately close in spirit to LTTng's CTF output (per-CPU packet
streams, packet-level lost-event counters, ns timestamps) while staying
simple enough to decode in bulk with numpy.

Packets may be zlib-compressed (flag bit 0).  The paper's Section III-B
suggests "data-compression techniques at run-time to reduce the data-size"
for cluster-scale tracing; kernel event streams are highly repetitive and
compress ~4-6x (see ``benchmarks/bench_ext_cluster.py``).

Layout (all little-endian)::

    trace header:  magic u32 ('LTNZ'), version u16, ncpus u16,
                   start_ts u64, end_ts u64, reserved u64
    packet:        magic u32 ('LPKT'), cpu u16, flags u16,
                   n_records u32, lost_before u32, payload_bytes u32,
                   begin_ts u64, end_ts u64,
                   then payload_bytes bytes (records, possibly compressed)

Reading has one decoder, :class:`StreamDecoder`: it takes the bytes in
pieces of any size and hands back each packet as its last byte arrives.
:meth:`Trace.from_bytes` feeds it the whole buffer, :meth:`Trace.read`
(and so :meth:`Trace.from_file`) the stream's 256 KiB reads until EOF, and
:mod:`repro.stream` the pieces of a socket or pipe, so every reader
accepts the same bytes and rejects damage with the same message wherever
the pieces were cut.
"""

from __future__ import annotations

import io
import struct
import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import BinaryIO, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.tracing.events import RECORD_DTYPE, RECORD_SIZE
from repro.tracing.ringbuffer import MAX_SUBBUF_BYTES, SubBuffer

TRACE_MAGIC = 0x4C544E5A  # 'LTNZ'
PACKET_MAGIC = 0x4C504B54  # 'LPKT'
VERSION = 2

#: Packet flag: payload is zlib-compressed.
FLAG_COMPRESSED = 0x0001

#: Bytes :meth:`Trace.read` asks for at a time.  One read of a whole file
#: would allocate (and fault in) a buffer as large as the file per call:
#: for a 1 MB trace, pieces cut the peak memory of a read from 2.2 to
#: 1.7 MB and the page faults per read from ~500 to ~250.
READ_SIZE = 256 * 1024

_TRACE_HEADER = struct.Struct("<IHHQQQ")
_PACKET_HEADER = struct.Struct("<IHHIIIQQ")
_Bytes = Union[bytes, bytearray, memoryview]


class TraceFormatError(ValueError):
    """Raised on malformed trace bytes."""


@dataclass
class Packet:
    """One decoded packet (sub-buffer) of trace records."""

    cpu: int
    n_records: int
    lost_before: int
    begin_ts: int
    end_ts: int
    payload: bytes  # always uncompressed in memory

    def records(self) -> np.ndarray:
        """Decode the payload into a structured array (zero-copy view)."""
        return np.frombuffer(self.payload, dtype=RECORD_DTYPE)


@dataclass
class Trace:
    """A complete decoded trace."""

    ncpus: int
    start_ts: int
    end_ts: int
    packets: List[Packet] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def records_lost(self) -> int:
        return sum(p.lost_before for p in self.packets)

    @property
    def span_ns(self) -> int:
        return self.end_ts - self.start_ts

    def records(self) -> np.ndarray:
        """All records merged across CPUs, stably sorted by timestamp."""
        if not self.packets:
            return np.empty(0, dtype=RECORD_DTYPE)
        merged = np.concatenate([p.records() for p in self.packets])
        return merged[np.argsort(merged["time"], kind="stable")]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_bytes(self, compress: bool = False) -> bytes:
        out = io.BytesIO()
        self.write(out, compress=compress)
        return out.getvalue()

    def write(self, fp: BinaryIO, compress: bool = False) -> None:
        fp.write(
            _TRACE_HEADER.pack(
                TRACE_MAGIC, VERSION, self.ncpus, self.start_ts, self.end_ts, 0
            )
        )
        for p in self.packets:
            if len(p.payload) != p.n_records * RECORD_SIZE:
                raise TraceFormatError(
                    f"packet payload size mismatch on cpu {p.cpu}"
                )
            flags = 0
            payload = p.payload
            if compress and payload:
                compressed = zlib.compress(payload, level=6)
                if len(compressed) < len(payload):
                    flags |= FLAG_COMPRESSED
                    payload = compressed
            fp.write(
                _PACKET_HEADER.pack(
                    PACKET_MAGIC,
                    p.cpu,
                    flags,
                    p.n_records,
                    p.lost_before,
                    len(payload),
                    p.begin_ts,
                    p.end_ts,
                )
            )
            fp.write(payload)

    def to_file(self, path: str, compress: bool = False) -> None:
        with open(path, "wb") as fp:
            self.write(fp, compress=compress)

    # ------------------------------------------------------------------
    @staticmethod
    def from_bytes(data: _Bytes) -> "Trace":
        return _decode((data,))

    @staticmethod
    def from_file(path: str) -> "Trace":
        with open(path, "rb") as fp:
            return Trace.read(fp)

    @staticmethod
    def read(fp: BinaryIO) -> "Trace":
        """Decode a stream to its end, read in :data:`READ_SIZE` pieces;
        short reads (pipes, sockets) are just smaller pieces to the
        decoder."""
        return _decode(iter(partial(fp.read, READ_SIZE), b""))


def _decode(pieces: Iterable[_Bytes]) -> Trace:
    decoder = StreamDecoder()
    packets = [packet for data in pieces for packet in decoder.feed(data)]
    trace = decoder.finish()
    trace.packets = packets
    return trace


def trace_header(buf: _Bytes) -> Trace:
    """Decode the trace header at the start of ``buf`` into an empty
    :class:`Trace` shell (``ncpus``/``start_ts``/``end_ts``, no
    packets)."""
    if len(buf) < _TRACE_HEADER.size:
        raise TraceFormatError("truncated trace header")
    magic, version, ncpus, start_ts, end_ts, _ = _TRACE_HEADER.unpack_from(
        buf
    )
    if magic != TRACE_MAGIC:
        raise TraceFormatError(f"bad trace magic: {magic:#x}")
    if version != VERSION:
        raise TraceFormatError(f"unsupported trace version: {version}")
    return Trace(ncpus=ncpus, start_ts=start_ts, end_ts=end_ts)


def packet_header(buf: _Bytes, index: int) -> Tuple[int, ...]:
    """Unpack the packet header at the start of ``buf`` and check its
    magic and its payload size; ``index`` numbers the packet in error
    messages.  Returns the header fields: ``(magic, cpu, flags,
    n_records, lost_before, payload_bytes, begin_ts, end_ts)``.

    A raw payload holds exactly ``n_records`` records; a compressed one
    is at most zlib's worst case (``compressBound``) for them; and no
    packet holds more records than the largest sub-buffer
    (``MAX_SUBBUF_BYTES``).  So a header cannot make a reader wait for,
    buffer or inflate more than one sub-buffer's worth of payload."""
    header = _PACKET_HEADER.unpack_from(buf)
    magic, cpu, flags, n_records, _, payload_bytes, _, _ = header
    if magic != PACKET_MAGIC:
        raise TraceFormatError(
            f"bad packet magic: {magic:#x} (packet #{index})"
        )
    size = n_records * RECORD_SIZE
    if size > MAX_SUBBUF_BYTES:
        bad = True
    elif flags & FLAG_COMPRESSED:
        size += (size >> 12) + (size >> 14) + (size >> 25) + 13
        bad = payload_bytes > size
    else:
        bad = payload_bytes != size
    if bad:
        raise TraceFormatError(
            f"packet payload size mismatch on cpu {cpu} (packet #{index})"
        )
    return header


def decode_packet(
    header: Tuple[int, ...], payload: _Bytes, index: int
) -> Packet:
    """Build the packet of a checked header and its complete stored
    payload: inflate a compressed payload (or copy a raw one), then check
    its size against the record count.  Inflation stops one byte past
    the record count, so a payload cannot inflate beyond its claim."""
    _, cpu, flags, n_records, lost, _, begin_ts, end_ts = header
    size = n_records * RECORD_SIZE
    if flags & FLAG_COMPRESSED:
        inflater = zlib.decompressobj()
        try:
            payload = inflater.decompress(payload, size + 1)
        except zlib.error as exc:
            raise TraceFormatError(
                f"corrupt compressed packet (packet #{index}): {exc}"
            )
        if not inflater.eof and len(payload) <= size:
            # zlib.decompress's own words for a stream that stops short.
            raise TraceFormatError(
                f"corrupt compressed packet (packet #{index}): Error -5 "
                "while decompressing data: incomplete or truncated stream"
            )
    else:
        payload = bytes(payload)
    if len(payload) != size:
        raise TraceFormatError(
            f"packet payload size mismatch on cpu {cpu} (packet #{index})"
        )
    return Packet(
        cpu=cpu,
        n_records=n_records,
        lost_before=lost,
        begin_ts=begin_ts,
        end_ts=end_ts,
        payload=payload,
    )


def truncation_error(tail: _Bytes, index: int) -> TraceFormatError:
    """The error for a stream that ends inside packet #``index``, of which
    only ``tail`` (fewer bytes than the whole packet) arrived."""
    if len(tail) < _PACKET_HEADER.size:
        return TraceFormatError(
            f"truncated packet header (packet #{index}: "
            f"{len(tail)} of {_PACKET_HEADER.size} bytes)"
        )
    _, cpu, _, _, _, payload_bytes, _, _ = packet_header(tail, index)
    return TraceFormatError(
        f"truncated packet payload (packet #{index}, cpu {cpu}: "
        f"{len(tail) - _PACKET_HEADER.size} of {payload_bytes} bytes)"
    )


class StreamDecoder:
    """Incremental bytes -> packets: the one trace reader.

    :meth:`feed` takes the stream in pieces of any size — the whole trace
    at once, file reads, or socket chunks that split headers and payloads
    anywhere — and returns the packets each piece completed.  Once the
    trace header is in, :attr:`trace` holds its shell.  :meth:`finish`
    declares end of stream and returns the shell, or raises
    :class:`TraceFormatError` if the stream stopped short of the header
    or inside a packet.  Every error depends on the bytes alone, never on
    how they were split.

    Packets are framed on the incoming piece itself; only the unconsumed
    tail of a piece is kept, and each payload is copied once, into its
    :class:`Packet`.
    """

    def __init__(self) -> None:
        self._tail = bytearray()
        #: Parsed trace header shell (no packets), once available.
        self.trace: Optional[Trace] = None
        self.packets_decoded = 0

    def feed(self, data: _Bytes) -> List[Packet]:
        """Consume the next piece of the stream; return the packets it
        completed (possibly none, possibly several)."""
        tail = self._tail
        if tail:
            tail += data
            data = tail
        out: List[Packet] = []
        with memoryview(data) as view:
            pos = 0
            end = len(view)
            if self.trace is None and end >= _TRACE_HEADER.size:
                self.trace = trace_header(view)
                pos = _TRACE_HEADER.size
            while self.trace is not None and end - pos >= _PACKET_HEADER.size:
                index = self.packets_decoded
                header = packet_header(view[pos:], index)
                stop = pos + _PACKET_HEADER.size + header[5]
                if stop > end:
                    break
                out.append(decode_packet(
                    header, view[pos + _PACKET_HEADER.size:stop], index
                ))
                self.packets_decoded += 1
                pos = stop
            if data is not tail:
                tail += view[pos:]
        if data is tail:
            del tail[:pos]
        return out

    def decode(self, pieces: Iterable[_Bytes]) -> Iterator[Packet]:
        """Feed ``pieces`` in order, yielding each packet as it completes,
        then :meth:`finish`."""
        for data in pieces:
            yield from self.feed(data)
        self.finish()

    def finish(self) -> Trace:
        """Declare end of stream; return the trace shell.  Raises if no
        complete trace header arrived, or the stream ended mid-packet."""
        if self.trace is None:
            return trace_header(self._tail)  # short of a header: raises
        if self._tail:
            raise truncation_error(self._tail, self.packets_decoded)
        return self.trace


def packet_from_subbuffer(cpu: int, sb: SubBuffer) -> Packet:
    """Convert a consumed ring-buffer sub-buffer into a trace packet."""
    return Packet(
        cpu=cpu,
        n_records=sb.n_records,
        lost_before=sb.lost_before,
        begin_ts=sb.begin_ts,
        end_ts=sb.end_ts,
        payload=bytes(sb.data),
    )
