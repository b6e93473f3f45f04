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
"""

from __future__ import annotations

import io
import struct
import zlib
from dataclasses import dataclass, field
from typing import BinaryIO, Iterator, List, Tuple, Union

import numpy as np

from repro.tracing.events import RECORD_DTYPE, RECORD_SIZE
from repro.tracing.ringbuffer import SubBuffer

TRACE_MAGIC = 0x4C544E5A  # 'LTNZ'
PACKET_MAGIC = 0x4C504B54  # 'LPKT'
VERSION = 2

#: Packet flag: payload is zlib-compressed.
FLAG_COMPRESSED = 0x0001

_TRACE_HEADER = struct.Struct("<IHHQQQ")
_PACKET_HEADER = struct.Struct("<IHHIIIQQ")


class TraceFormatError(ValueError):
    """Raised on malformed trace bytes."""


def _read_exact(fp: BinaryIO, n: int) -> bytes:
    """Read exactly ``n`` bytes, looping over short reads.

    ``fp.read(n)`` is allowed to return fewer bytes than requested for any
    non-regular stream (pipes, sockets, interactive readers); trusting a
    single call silently mis-decodes a slow stream.  Only end of stream
    ends the loop early — the caller decides whether a short result means
    clean EOF or truncation.
    """
    chunks: List[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = fp.read(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


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
    def from_bytes(data: Union[bytes, bytearray]) -> "Trace":
        return Trace.read(io.BytesIO(bytes(data)))

    @staticmethod
    def from_file(path: str) -> "Trace":
        with open(path, "rb") as fp:
            return Trace.read(fp)

    @staticmethod
    def read(fp: BinaryIO) -> "Trace":
        trace = read_trace_header(fp)
        trace.packets.extend(iter_packets(fp))
        return trace


def read_trace_header(fp: BinaryIO) -> Trace:
    """Decode the trace header, returning an empty :class:`Trace` shell.

    The shell carries ``ncpus``/``start_ts``/``end_ts``; the caller decides
    whether to slurp packets into it (:meth:`Trace.read`) or to stream them
    one at a time with :func:`iter_packets`.
    """
    header = _read_exact(fp, _TRACE_HEADER.size)
    if len(header) < _TRACE_HEADER.size:
        raise TraceFormatError("truncated trace header")
    magic, version, ncpus, start_ts, end_ts, _ = _TRACE_HEADER.unpack(header)
    if magic != TRACE_MAGIC:
        raise TraceFormatError(f"bad trace magic: {magic:#x}")
    if version != VERSION:
        raise TraceFormatError(f"unsupported trace version: {version}")
    return Trace(ncpus=ncpus, start_ts=start_ts, end_ts=end_ts)


def packet_header(
    buf: Union[bytes, bytearray], index: int
) -> Tuple[int, ...]:
    """Unpack the packet header at the start of ``buf`` and check its
    magic; ``index`` numbers the packet in error messages.  Returns the
    header fields: ``(magic, cpu, flags, n_records, lost_before,
    payload_bytes, begin_ts, end_ts)``."""
    header = _PACKET_HEADER.unpack_from(buf)
    if header[0] != PACKET_MAGIC:
        raise TraceFormatError(
            f"bad packet magic: {header[0]:#x} (packet #{index})"
        )
    return header


def decode_packet(
    header: Tuple[int, ...], payload: bytes, index: int
) -> Packet:
    """Build the packet of a checked header and its complete payload:
    inflate a compressed payload, then check its size against the record
    count.  The batch reader (:func:`iter_packets`) and the streaming
    decoder (:class:`repro.stream.decoder.StreamDecoder`) both call this,
    so they reject the same bytes with the same messages."""
    _, cpu, flags, n_records, lost, _, begin_ts, end_ts = header
    if flags & FLAG_COMPRESSED:
        try:
            payload = zlib.decompress(payload)
        except zlib.error as exc:
            raise TraceFormatError(
                f"corrupt compressed packet (packet #{index}): {exc}"
            )
    if len(payload) != n_records * RECORD_SIZE:
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


def iter_packets(fp: BinaryIO) -> Iterator[Packet]:
    """Yield packets one at a time from a stream positioned after the
    trace header.

    Packet-granular and short-read tolerant: every read loops until the
    requested byte count arrives, so slow pipes decode identically to
    files, and a stream cut mid-packet raises :class:`TraceFormatError`
    naming the packet index instead of silently mis-decoding.
    """
    index = 0
    while True:
        phead = _read_exact(fp, _PACKET_HEADER.size)
        if not phead:
            return
        if len(phead) < _PACKET_HEADER.size:
            raise TraceFormatError(
                f"truncated packet header (packet #{index}: "
                f"{len(phead)} of {_PACKET_HEADER.size} bytes)"
            )
        header = packet_header(phead, index)
        cpu, payload_bytes = header[1], header[5]
        payload = _read_exact(fp, payload_bytes)
        if len(payload) < payload_bytes:
            raise TraceFormatError(
                f"truncated packet payload (packet #{index}, cpu {cpu}: "
                f"{len(payload)} of {payload_bytes} bytes)"
            )
        yield decode_packet(header, payload, index)
        index += 1


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
