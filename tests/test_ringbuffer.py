"""Unit + property tests for the LTTng-style ring buffers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tracing.events import RECORD_SIZE
from repro.tracing.ringbuffer import MAX_SUBBUF_BYTES, Mode, RingBuffer


def write_n(rb, n, start_time=0):
    ok = 0
    for i in range(n):
        if rb.write(start_time + i, 1, 0, 0, 0, 0):
            ok += 1
    return ok


class TestBasics:
    def test_records_land_in_subbuffers(self):
        rb = RingBuffer(0, subbuf_size=RECORD_SIZE * 4, n_subbufs=4)
        write_n(rb, 4)
        assert rb.records_written == 4
        subbufs = rb.flush()
        assert sum(sb.n_records for sb in subbufs) == 4

    def test_packet_timestamps(self):
        rb = RingBuffer(0, subbuf_size=RECORD_SIZE * 2, n_subbufs=4)
        rb.write(100, 1, 0, 0, 0, 0)
        rb.write(200, 1, 0, 0, 0, 0)
        sb = rb.flush()[0]
        assert sb.begin_ts == 100 and sb.end_ts == 200

    def test_consume_takes_only_full(self):
        rb = RingBuffer(0, subbuf_size=RECORD_SIZE * 2, n_subbufs=4)
        write_n(rb, 3)  # one full subbuffer + one half
        taken = rb.consume()
        assert sum(sb.n_records for sb in taken) == 2
        assert rb.unconsumed_bytes() == RECORD_SIZE

    def test_validation(self):
        with pytest.raises(ValueError):
            RingBuffer(0, subbuf_size=4)
        with pytest.raises(ValueError):
            RingBuffer(0, n_subbufs=1)
        RingBuffer(0, subbuf_size=MAX_SUBBUF_BYTES)
        with pytest.raises(ValueError):
            RingBuffer(0, subbuf_size=MAX_SUBBUF_BYTES + 1)


class TestDiscardMode:
    def test_discards_when_full(self):
        rb = RingBuffer(
            0, subbuf_size=RECORD_SIZE * 2, n_subbufs=2, mode=Mode.DISCARD
        )
        # Capacity before stall: 1 completed subbuffer (2 rec) + current (2).
        ok = write_n(rb, 10)
        assert ok == 4
        assert rb.records_lost == 6
        assert rb.overwritten_subbufs == 0

    def test_loss_resumes_after_consume(self):
        rb = RingBuffer(
            0, subbuf_size=RECORD_SIZE * 2, n_subbufs=2, mode=Mode.DISCARD
        )
        write_n(rb, 10)
        rb.consume()
        assert rb.write(100, 1, 0, 0, 0, 0) is True

    def test_lost_before_recorded_on_next_packet(self):
        rb = RingBuffer(
            0, subbuf_size=RECORD_SIZE * 2, n_subbufs=2, mode=Mode.DISCARD
        )
        write_n(rb, 10)  # 6 lost
        rb.consume()
        write_n(rb, 2, start_time=50)  # fills current, switches
        packets = rb.flush()
        assert any(sb.lost_before == 6 for sb in packets)


class TestOverwriteMode:
    def test_overwrites_oldest(self):
        rb = RingBuffer(
            0, subbuf_size=RECORD_SIZE * 2, n_subbufs=2, mode=Mode.OVERWRITE
        )
        ok = write_n(rb, 10)
        assert ok == 10  # nothing refused...
        assert rb.records_lost > 0  # ...but old data dropped
        assert rb.overwritten_subbufs > 0

    def test_flight_recorder_keeps_newest(self):
        rb = RingBuffer(
            0, subbuf_size=RECORD_SIZE * 2, n_subbufs=3, mode=Mode.OVERWRITE
        )
        write_n(rb, 20)
        packets = rb.flush()
        newest = max(sb.end_ts for sb in packets)
        assert newest == 19


class TestFlushTailAccounting:
    def test_flush_surfaces_trailing_losses(self):
        # Fill everything without consuming: losses happen after the last
        # switch, so no future sub-buffer would ever report them.  flush()
        # must emit a final sub-buffer carrying the residual count.
        rb = RingBuffer(
            0, subbuf_size=RECORD_SIZE * 2, n_subbufs=2, mode=Mode.DISCARD
        )
        write_n(rb, 10)  # 4 written, 6 lost, nothing consumed yet
        subbufs = rb.flush()
        assert sum(sb.lost_before for sb in subbufs) == 6
        assert sum(sb.n_records for sb in subbufs) == 4

    def test_tail_subbuffer_is_empty_and_timestamped(self):
        rb = RingBuffer(
            0, subbuf_size=RECORD_SIZE * 2, n_subbufs=2, mode=Mode.DISCARD
        )
        write_n(rb, 10)
        tail = rb.flush()[-1]
        assert tail.n_records == 0
        assert tail.lost_before == 6
        # The losses happened at write times 4..9; the tail is stamped with
        # the last one so packet ordering stays truthful.
        assert tail.begin_ts == tail.end_ts == 9

    def test_flush_tail_not_duplicated_on_reuse(self):
        rb = RingBuffer(
            0, subbuf_size=RECORD_SIZE * 2, n_subbufs=2, mode=Mode.DISCARD
        )
        write_n(rb, 10)
        rb.flush()
        assert rb.flush() == []  # residual reported exactly once

    def test_overwrite_written_counts_surviving_records(self):
        rb = RingBuffer(
            0, subbuf_size=RECORD_SIZE * 2, n_subbufs=2, mode=Mode.OVERWRITE
        )
        write_n(rb, 10)
        consumed = sum(sb.n_records for sb in rb.flush())
        # Overwritten records are reclassified written -> lost.
        assert rb.records_written == consumed
        assert rb.records_written + rb.records_lost == 10


# ----------------------------------------------------------------------
# Property: conservation — every emitted record is either written or lost.
# ----------------------------------------------------------------------

@given(
    n_records=st.integers(min_value=0, max_value=300),
    subbuf_records=st.integers(min_value=1, max_value=16),
    n_subbufs=st.integers(min_value=2, max_value=6),
    mode=st.sampled_from([Mode.DISCARD, Mode.OVERWRITE]),
    consume_every=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=80, deadline=None)
def test_conservation(n_records, subbuf_records, n_subbufs, mode, consume_every):
    rb = RingBuffer(
        0,
        subbuf_size=RECORD_SIZE * subbuf_records,
        n_subbufs=n_subbufs,
        mode=mode,
    )
    consumed = 0
    for i in range(n_records):
        rb.write(i, 1, 0, 0, 0, 0)
        if consume_every and i % consume_every == consume_every - 1:
            consumed += sum(sb.n_records for sb in rb.consume())
    consumed += sum(sb.n_records for sb in rb.flush())
    # In OVERWRITE mode, records counted as written may later be lost; the
    # invariant is: consumed + lost == total emitted.
    assert consumed + rb.records_lost == n_records


@given(
    n_records=st.integers(min_value=0, max_value=300),
    subbuf_records=st.integers(min_value=1, max_value=16),
    n_subbufs=st.integers(min_value=2, max_value=6),
    mode=st.sampled_from([Mode.DISCARD, Mode.OVERWRITE]),
    consume_every=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=80, deadline=None)
def test_loss_accounting_invariant(
    n_records, subbuf_records, n_subbufs, mode, consume_every
):
    """End-of-trace invariant, both modes, including the flush-tail case:

        consumed + sum(lost_before) == records_written + records_lost

    Before the flush-tail fix, losses after the last sub-buffer switch
    never surfaced in any ``lost_before``, so the left side came up short
    whenever a trace ended with unreported discards.
    """
    rb = RingBuffer(
        0,
        subbuf_size=RECORD_SIZE * subbuf_records,
        n_subbufs=n_subbufs,
        mode=mode,
    )
    consumed = 0
    accounted_lost = 0
    for i in range(n_records):
        rb.write(i, 1, 0, 0, 0, 0)
        if consume_every and i % consume_every == consume_every - 1:
            for sb in rb.consume():
                consumed += sb.n_records
                accounted_lost += sb.lost_before
    for sb in rb.flush():
        consumed += sb.n_records
        accounted_lost += sb.lost_before
    assert consumed + accounted_lost == rb.records_written + rb.records_lost
    # Every loss the buffer counted is visible to the consumer.
    assert accounted_lost == rb.records_lost
    # And the consumer got exactly what was (still) written.
    assert consumed == rb.records_written


@given(
    subbuf_records=st.integers(min_value=1, max_value=8),
    n_subbufs=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=30, deadline=None)
def test_timestamps_monotonic_within_packets(subbuf_records, n_subbufs):
    rb = RingBuffer(
        0, subbuf_size=RECORD_SIZE * subbuf_records, n_subbufs=n_subbufs
    )
    for i in range(50):
        rb.write(i * 10, 1, 0, 0, 0, 0)
    for sb in rb.flush():
        assert sb.begin_ts <= sb.end_ts
