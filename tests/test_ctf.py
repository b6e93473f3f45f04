"""Unit + property tests for the binary trace codec."""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tracing.ctf import (
    PACKET_MAGIC,
    TRACE_MAGIC,
    Packet,
    Trace,
    TraceFormatError,
    _PACKET_HEADER,
    _TRACE_HEADER,
    packet_from_subbuffer,
)
from repro.tracing.events import RECORD_SIZE, RECORD_STRUCT
from repro.tracing.ringbuffer import MAX_SUBBUF_BYTES, RingBuffer


def make_packet(cpu=0, records=((100, 1, 0, 0, 7, 0),)):
    payload = b"".join(RECORD_STRUCT.pack(*r) for r in records)
    times = [r[0] for r in records]
    return Packet(
        cpu=cpu,
        n_records=len(records),
        lost_before=0,
        begin_ts=min(times) if times else 0,
        end_ts=max(times) if times else 0,
        payload=payload,
    )


class TestRoundTrip:
    def test_simple(self):
        trace = Trace(ncpus=2, start_ts=0, end_ts=1000, packets=[make_packet()])
        data = trace.to_bytes()
        back = Trace.from_bytes(data)
        assert back.ncpus == 2
        assert back.start_ts == 0 and back.end_ts == 1000
        assert np.array_equal(back.records(), trace.records())

    def test_file_roundtrip(self, tmp_path):
        trace = Trace(ncpus=1, start_ts=0, end_ts=10, packets=[make_packet()])
        path = str(tmp_path / "t.lttnz")
        trace.to_file(path)
        back = Trace.from_file(path)
        assert np.array_equal(back.records(), trace.records())

    def test_empty_trace(self):
        trace = Trace(ncpus=4, start_ts=5, end_ts=6)
        back = Trace.from_bytes(trace.to_bytes())
        assert back.records().size == 0
        assert back.span_ns == 1


class TestMergeSemantics:
    def test_records_merged_time_sorted(self):
        p0 = make_packet(cpu=0, records=((30, 1, 0, 0, 0, 0), (50, 1, 0, 0, 0, 0)))
        p1 = make_packet(cpu=1, records=((10, 2, 1, 0, 0, 0), (40, 2, 1, 0, 0, 0)))
        trace = Trace(ncpus=2, start_ts=0, end_ts=100, packets=[p0, p1])
        times = list(trace.records()["time"])
        assert times == sorted(times)

    def test_cpu_records_filters(self):
        p0 = make_packet(cpu=0)
        p1 = make_packet(cpu=1, records=((5, 2, 1, 0, 0, 0),))
        trace = Trace(ncpus=2, start_ts=0, end_ts=100, packets=[p0, p1])
        cpu = trace.records()["cpu"]
        assert int((cpu == 0).sum()) == 1
        assert int((cpu == 1).sum()) == 1
        assert int((cpu == 3).sum()) == 0

    def test_records_lost_sums_packets(self):
        p = make_packet()
        p.lost_before = 4
        trace = Trace(ncpus=1, start_ts=0, end_ts=1, packets=[p, make_packet()])
        assert trace.records_lost == 4


class TestErrors:
    def test_bad_magic(self):
        data = bytearray(Trace(ncpus=1, start_ts=0, end_ts=1).to_bytes())
        data[0] ^= 0xFF
        with pytest.raises(TraceFormatError):
            Trace.from_bytes(bytes(data))

    def test_truncated_header(self):
        with pytest.raises(TraceFormatError):
            Trace.from_bytes(b"\x00\x01")

    def test_truncated_payload(self):
        trace = Trace(ncpus=1, start_ts=0, end_ts=1, packets=[make_packet()])
        data = trace.to_bytes()
        with pytest.raises(TraceFormatError):
            Trace.from_bytes(data[:-4])

    def test_bad_packet_magic(self):
        trace = Trace(ncpus=1, start_ts=0, end_ts=1, packets=[make_packet()])
        data = bytearray(trace.to_bytes())
        data[32] ^= 0xFF  # first packet header byte
        with pytest.raises(TraceFormatError):
            Trace.from_bytes(bytes(data))

    def test_inconsistent_packet_rejected_on_write(self):
        p = make_packet()
        p = Packet(
            cpu=p.cpu,
            n_records=5,  # wrong
            lost_before=0,
            begin_ts=0,
            end_ts=0,
            payload=p.payload,
        )
        trace = Trace(ncpus=1, start_ts=0, end_ts=1, packets=[p])
        with pytest.raises(TraceFormatError):
            trace.to_bytes()

    def test_bad_version(self):
        data = bytearray(Trace(ncpus=1, start_ts=0, end_ts=1).to_bytes())
        data[4] = 99
        with pytest.raises(TraceFormatError):
            Trace.from_bytes(bytes(data))


class TestSubBufferBridge:
    def test_packet_from_subbuffer(self):
        rb = RingBuffer(3, subbuf_size=RECORD_SIZE * 4, n_subbufs=2)
        rb.write(10, 1, 3, 0, 0, 0)
        rb.write(20, 2, 3, 1, 5, 7)
        sb = rb.flush()[0]
        packet = packet_from_subbuffer(3, sb)
        assert packet.cpu == 3
        records = packet.records()
        assert list(records["time"]) == [10, 20]
        assert records[1]["pid"] == 5


class TestCompression:
    def _trace(self, n=500):
        records = tuple((i * 100, 1, 0, i % 2, 1000, 0) for i in range(n))
        return Trace(
            ncpus=1, start_ts=0, end_ts=n * 100, packets=[make_packet(records=records)]
        )

    def test_compressed_roundtrip(self):
        trace = self._trace()
        back = Trace.from_bytes(trace.to_bytes(compress=True))
        assert np.array_equal(back.records(), trace.records())

    def test_compression_shrinks_real_streams(self):
        trace = self._trace()
        plain = trace.to_bytes(compress=False)
        packed = trace.to_bytes(compress=True)
        assert len(packed) < 0.6 * len(plain)

    def test_incompressible_payload_stored_raw(self):
        import os

        # Random bytes as records: zlib would grow them; flag must stay off.
        payload = os.urandom(24 * 4)
        p = Packet(
            cpu=0, n_records=4, lost_before=0, begin_ts=0, end_ts=1, payload=payload
        )
        trace = Trace(ncpus=1, start_ts=0, end_ts=1, packets=[p])
        back = Trace.from_bytes(trace.to_bytes(compress=True))
        assert back.packets[0].payload == payload

    def test_corrupt_compressed_packet_detected(self):
        trace = self._trace()
        data = bytearray(trace.to_bytes(compress=True))
        data[-10] ^= 0xFF  # clobber compressed payload
        with pytest.raises(TraceFormatError):
            Trace.from_bytes(bytes(data))

    def test_compressed_file_roundtrip(self, tmp_path):
        trace = self._trace()
        path = str(tmp_path / "c.lttnz")
        trace.to_file(path, compress=True)
        back = Trace.from_file(path)
        assert np.array_equal(back.records(), trace.records())


# ----------------------------------------------------------------------
# Property: arbitrary record batches survive the codec byte-exactly.
# ----------------------------------------------------------------------

record_strategy = st.tuples(
    st.integers(min_value=0, max_value=2**63 - 1),   # time
    st.integers(min_value=0, max_value=2**16 - 1),   # event
    st.integers(min_value=0, max_value=255),          # cpu
    st.integers(min_value=0, max_value=255),          # flag
    st.integers(min_value=-(2**31), max_value=2**31 - 1),  # pid
    st.integers(min_value=0, max_value=2**64 - 1),   # arg
)


@given(
    st.lists(record_strategy, min_size=0, max_size=60),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_codec_roundtrip_property(records, compress):
    packets = []
    if records:
        packets.append(make_packet(cpu=records[0][2], records=tuple(records)))
    trace = Trace(ncpus=256, start_ts=0, end_ts=2**63 - 1, packets=packets)
    back = Trace.from_bytes(trace.to_bytes(compress=compress))
    a, b = trace.records(), back.records()
    assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# Regression: short reads and truncation at every byte offset.
# ----------------------------------------------------------------------

class DribblingReader:
    """A stream that returns at most one byte per read() call — the legal
    worst case for pipes and sockets that a single fp.read(n) mis-handles."""

    def __init__(self, data):
        self._buf = io.BytesIO(data)

    def read(self, n=-1):
        return self._buf.read(min(1, n) if n >= 0 else 1)


def _two_packet_trace():
    return Trace(
        ncpus=2,
        start_ts=0,
        end_ts=500,
        packets=[
            make_packet(cpu=0, records=((100, 1, 0, 0, 7, 0),
                                        (200, 2, 0, 1, 7, 0))),
            make_packet(cpu=1, records=((150, 1, 1, 0, 8, 0),)),
        ],
    )


class TestShortReads:
    def test_dribbling_stream_decodes_fully(self):
        """Reading from a 1-byte-per-call stream must reconstruct the
        trace byte-exactly, not silently mis-decode a short read."""
        trace = _two_packet_trace()
        back = Trace.read(DribblingReader(trace.to_bytes()))
        assert len(back.packets) == 2
        assert np.array_equal(back.records(), trace.records())

    def test_dribbling_compressed_stream(self):
        trace = _two_packet_trace()
        back = Trace.read(DribblingReader(trace.to_bytes(compress=True)))
        assert np.array_equal(back.records(), trace.records())

    def test_every_truncation_offset_is_detected(self):
        """A trace cut at ANY byte offset either raises TraceFormatError
        or — only when the cut lands exactly on a packet boundary — parses
        as a valid prefix of the original; no offset decodes garbage."""
        trace = _two_packet_trace()
        data = trace.to_bytes()
        boundary_offsets = set()
        for cut in range(len(data)):
            try:
                back = Trace.from_bytes(data[:cut])
            except TraceFormatError:
                continue
            boundary_offsets.add(cut)
            # A successful parse must be an exact packet-list prefix.
            assert len(back.packets) <= len(trace.packets)
            for got, want in zip(back.packets, trace.packets):
                assert got == want
        # Exactly header-end and first-packet-end parse; everything else
        # (including every mid-header and mid-payload offset) raises.
        assert len(boundary_offsets) == 2

    def test_truncation_messages(self):
        """The reader names what a cut stream lacks: the trace header, a
        packet header, or a payload."""
        data = _two_packet_trace().to_bytes()
        second = _TRACE_HEADER.size + _PACKET_HEADER.size + 2 * RECORD_SIZE
        cases = {
            0: "truncated trace header",
            31: "truncated trace header",
            _TRACE_HEADER.size + 10:
                "truncated packet header (packet #0: 10 of 36 bytes)",
            second + _PACKET_HEADER.size + 4:
                "truncated packet payload (packet #1, cpu 1: 4 of 24 bytes)",
        }
        for cut, message in cases.items():
            assert _batch(data[:cut]) == (None, message)

    def test_truncation_offsets_match_streaming_decoder(self):
        """At every cut offset, raw and compressed, the decoder fed one
        byte at a time returns the trace, or raises the message, of
        ``Trace.from_bytes`` on the same prefix."""
        trace = _two_packet_trace()
        for compress in (False, True):
            data = trace.to_bytes(compress=compress)
            for cut in range(len(data) + 1):
                prefix = data[:cut]
                batch, batch_error = _batch(prefix)
                stream, stream_error = _streamed(
                    [prefix[i:i + 1] for i in range(cut)]
                )
                assert stream_error == batch_error, (compress, cut)
                assert stream == batch, (compress, cut)


def _batch(data):
    """``(trace, None)`` of ``Trace.from_bytes(data)``, or ``(None,
    message)`` if it raises :class:`TraceFormatError`; any other exception
    propagates."""
    try:
        return Trace.from_bytes(data), None
    except TraceFormatError as exc:
        return None, str(exc)


def _streamed(pieces):
    """:func:`_batch` for a ``StreamDecoder`` fed ``pieces`` in order: the
    finished header shell carrying every packet fed back, or the error
    message."""
    from repro.stream import StreamDecoder

    decoder = StreamDecoder()
    try:
        packets = [p for piece in pieces for p in decoder.feed(piece)]
        trace = decoder.finish()
    except TraceFormatError as exc:
        return None, str(exc)
    trace.packets = packets
    return trace, None


# ----------------------------------------------------------------------
# The batch reader and the streaming decoder share packet validation.
# ----------------------------------------------------------------------

def _decode_errors(data):
    """The TraceFormatError messages of ``Trace.from_bytes`` and of a
    ``StreamDecoder`` fed one byte at a time, on the same bytes."""
    _, batch = _batch(data)
    _, stream = _streamed([data[i:i + 1] for i in range(len(data))])
    return batch, stream


class TestDecoderParity:
    def test_corrupt_compressed_packet(self):
        data = bytearray(TestCompression()._trace().to_bytes(compress=True))
        data[-10] ^= 0xFF  # clobber compressed payload
        batch, stream = _decode_errors(bytes(data))
        assert batch.startswith("corrupt compressed packet (packet #0): ")
        assert stream == batch

    def test_payload_size_mismatch(self):
        data = bytearray(_two_packet_trace().to_bytes())
        # Claim one more record in the second packet than its payload holds.
        second = _TRACE_HEADER.size + _PACKET_HEADER.size + 2 * RECORD_SIZE
        struct.pack_into("<I", data, second + 8, 2)
        batch, stream = _decode_errors(bytes(data))
        assert batch == "packet payload size mismatch on cpu 1 (packet #1)"
        assert stream == batch

    def test_bad_packet_magic(self):
        data = bytearray(_two_packet_trace().to_bytes())
        data[_TRACE_HEADER.size] ^= 0xFF
        batch, stream = _decode_errors(bytes(data))
        assert batch.startswith("bad packet magic: ")
        assert batch.endswith("(packet #0)")
        assert stream == batch


class TestPayloadBound:
    """A packet header's ``payload_bytes`` must fit its record count, so
    a bogus header cannot make the decoder buffer the stream behind it."""

    def _bogus(self, flags, payload_bytes):
        header = _TRACE_HEADER.pack(TRACE_MAGIC, 2, 1, 0, 100, 0)
        return header + _PACKET_HEADER.pack(
            PACKET_MAGIC, 0, flags, 1, 0, payload_bytes, 0, 100
        )

    @pytest.mark.parametrize("flags,payload_bytes", [
        (0, 0xFFFFFFFF), (0, RECORD_SIZE + 1), (1, 0xFFFFFFFF),
        (1, RECORD_SIZE + 14),
    ])
    def test_bogus_size_raises_on_first_feed(self, flags, payload_bytes):
        """8 MiB behind a header that claims more than its one record
        allows, fed in 64 KiB pieces: the first feed raises and the
        decoder holds no more than a header's bytes."""
        from repro.tracing.ctf import StreamDecoder

        data = self._bogus(flags, payload_bytes) + bytes(8 << 20)
        decoder = StreamDecoder()
        with pytest.raises(TraceFormatError) as exc:
            decoder.feed(data[:64 * 1024])
        assert str(exc.value) == (
            "packet payload size mismatch on cpu 0 (packet #0)"
        )
        assert len(decoder._tail) <= _PACKET_HEADER.size
        decoder = StreamDecoder()
        with pytest.raises(TraceFormatError):
            for i in range(len(data)):
                decoder.feed(data[i:i + 1])
        assert i == _TRACE_HEADER.size + _PACKET_HEADER.size - 1
        assert len(decoder._tail) <= _PACKET_HEADER.size

    @pytest.mark.parametrize("flags,payload_bytes", [
        (1, 0xFFFFFFFF),
        (0, (MAX_SUBBUF_BYTES // RECORD_SIZE + 1) * RECORD_SIZE),
    ])
    def test_record_count_above_one_subbuffer_raises(self, flags,
                                                     payload_bytes):
        """A header claiming more records than the largest sub-buffer
        holds raises on the first 64 KiB feed, raw or compressed, and the
        decoder holds at most the header."""
        from repro.tracing.ctf import StreamDecoder

        n_records = payload_bytes // RECORD_SIZE if flags == 0 else 0xFFFFFFFF
        data = (
            _TRACE_HEADER.pack(TRACE_MAGIC, 2, 1, 0, 100, 0)
            + _PACKET_HEADER.pack(
                PACKET_MAGIC, 0, flags, n_records, 0, payload_bytes, 0, 100)
            + bytes(8 << 20)
        )
        decoder = StreamDecoder()
        with pytest.raises(TraceFormatError) as exc:
            decoder.feed(data[:64 * 1024])
        assert str(exc.value) == (
            "packet payload size mismatch on cpu 0 (packet #0)"
        )
        assert len(decoder._tail) <= _PACKET_HEADER.size

    def test_zlib_bomb_inflates_no_further_than_its_claim(self):
        """221 bytes of deflate that inflate to 200 KiB, behind a header
        claiming 10 records: the size mismatch is found after inflating
        at most one byte past the 240 bytes claimed."""
        import tracemalloc
        import zlib

        bomb = zlib.compress(bytes(200 << 10), 9)
        data = (
            _TRACE_HEADER.pack(TRACE_MAGIC, 2, 1, 0, 100, 0)
            + _PACKET_HEADER.pack(
                PACKET_MAGIC, 0, 1, 10, 0, len(bomb), 0, 100)
            + bomb
        )
        tracemalloc.start()
        try:
            with pytest.raises(TraceFormatError) as exc:
                Trace.from_bytes(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(exc.value) == (
            "packet payload size mismatch on cpu 0 (packet #0)"
        )
        assert peak < 64 << 10

    def test_truncated_deflate_is_corrupt(self):
        """A deflate stream that stops short keeps zlib's own message."""
        import zlib

        payload = bytes(range(RECORD_SIZE)) * 4
        packed = zlib.compress(payload)[:-6]
        data = (
            _TRACE_HEADER.pack(TRACE_MAGIC, 2, 1, 0, 100, 0)
            + _PACKET_HEADER.pack(
                PACKET_MAGIC, 0, 1, 4, 0, len(packed), 0, 100)
            + packed
        )
        with pytest.raises(TraceFormatError) as exc:
            Trace.from_bytes(data)
        with pytest.raises(zlib.error) as raw:
            zlib.decompress(packed)
        assert str(exc.value) == (
            f"corrupt compressed packet (packet #0): {raw.value}"
        )

    def test_compressed_payload_up_to_zlib_worst_case(self):
        """Stored (level 0) deflate of incompressible records is larger
        than the records, and still within the bound."""
        import os
        import zlib

        payload = os.urandom(RECORD_SIZE * 100)
        packed = zlib.compress(payload, level=0)
        assert len(packed) > len(payload)
        data = (
            _TRACE_HEADER.pack(TRACE_MAGIC, 2, 1, 0, 100, 0)
            + _PACKET_HEADER.pack(
                PACKET_MAGIC, 0, 1, 100, 0, len(packed), 0, 100)
            + packed
        )
        assert Trace.from_bytes(data).packets[0].payload == payload


class ShortReader:
    """A file object whose reads return fewer bytes than asked (a
    different, seeded amount each time) and that records every size
    asked for."""

    def __init__(self, data, seed=0):
        self._buf = io.BytesIO(data)
        self._rng = np.random.default_rng(seed)
        self.asked = []

    def read(self, n=-1):
        self.asked.append(n)
        if n < 0:
            return self._buf.read()
        return self._buf.read(int(self._rng.integers(1, max(2, n // 3))))


def test_read_asks_for_bounded_pieces():
    """``Trace.read`` asks for ``READ_SIZE`` bytes at a time, never the
    whole stream, and short reads decode to the same trace."""
    from repro.tracing.ctf import READ_SIZE

    records = tuple((i, 1, i % 2, i % 2, 1000, i) for i in range(20_000))
    trace = Trace(ncpus=2, start_ts=0, end_ts=20_000, packets=[
        make_packet(cpu=0, records=records),
        make_packet(cpu=1, records=records[:10_000]),
    ])
    data = trace.to_bytes()
    assert len(data) > 2 * READ_SIZE
    reader = ShortReader(data)
    back = Trace.read(reader)
    assert back.packets == Trace.from_bytes(data).packets
    assert set(reader.asked) == {READ_SIZE}
    assert len(reader.asked) > len(data) // READ_SIZE


# ----------------------------------------------------------------------
# Fuzz: damaged bytes decode alike however the stream is split.
# ----------------------------------------------------------------------

def _packet_spans(data):
    """``(start, stop)`` byte range of every packet in well-formed trace
    bytes."""
    spans = []
    pos = _TRACE_HEADER.size
    while pos < len(data):
        payload_bytes = _PACKET_HEADER.unpack_from(data, pos)[5]
        spans.append((pos, pos + _PACKET_HEADER.size + payload_bytes))
        pos = spans[-1][1]
    return spans


@st.composite
def damaged_traces(draw):
    """The two-packet trace, raw or compressed, with overwritten
    ``n_records``/``payload_bytes`` fields, bit flips, a duplicated byte
    range (sometimes a whole packet) and a truncation, each optional."""
    data = bytearray(
        _two_packet_trace().to_bytes(compress=draw(st.booleans()))
    )
    spans = _packet_spans(data)
    for _ in range(draw(st.integers(0, 2))):
        start, _ = draw(st.sampled_from(spans))
        field = draw(st.sampled_from((8, 16)))  # n_records, payload_bytes
        value = draw(st.integers(0, 64) | st.integers(0, 2**32 - 1))
        struct.pack_into("<I", data, start + field, value)
    for _ in range(draw(st.integers(0, 3))):
        data[draw(st.integers(0, len(data) - 1))] ^= 1 << draw(
            st.integers(0, 7)
        )
    if draw(st.booleans()):
        offsets = st.integers(0, len(data))
        a, b = draw(st.sampled_from(spans) | st.tuples(offsets, offsets))
        a, b = min(a, b), max(a, b)
        data[b:b] = data[a:b]
    cut = draw(st.just(len(data)) | st.integers(0, len(data)))
    return bytes(data[:cut])


@given(damaged=damaged_traces(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_damaged_bytes_decode_alike_however_split(damaged, data):
    """``Trace.from_bytes`` and the decoder fed the same bytes in random
    pieces return equal traces, or raise ``TraceFormatError`` with the
    identical message; any other exception fails the test."""
    cuts = data.draw(st.lists(st.integers(0, len(damaged)), max_size=8))
    bounds = [0, *sorted(cuts), len(damaged)]
    pieces = [damaged[a:b] for a, b in zip(bounds, bounds[1:])]
    assert _streamed(pieces) == _batch(damaged)
