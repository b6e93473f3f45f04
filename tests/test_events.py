"""Unit + property tests for the trace-event vocabulary and record layout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tracing.events import (
    EVENT_NAMES,
    Ev,
    FIRST_POINT_EVENT,
    Flag,
    ListSink,
    NAME_TO_EVENT,
    NullSink,
    RECORD_DTYPE,
    RECORD_SIZE,
    RECORD_STRUCT,
    decode_switch,
    decode_task_state,
    encode_migrate,
    encode_switch,
    encode_task_state,
    event_name,
    is_paired,
)


class TestVocabulary:
    def test_every_event_named(self):
        for ev in Ev:
            assert int(ev) in EVENT_NAMES

    def test_names_match_paper_terminology(self):
        assert event_name(Ev.SOFTIRQ_TIMER) == "run_timer_softirq"
        assert event_name(Ev.SOFTIRQ_SCHED) == "run_rebalance_domains"
        assert event_name(Ev.TASKLET_NET_RX) == "net_rx_action"
        assert event_name(Ev.TASKLET_NET_TX) == "net_tx_action"
        assert event_name(Ev.SOFTIRQ_RCU) == "rcu_process_callbacks"

    def test_unknown_event_name(self):
        assert event_name(999) == "event_999"

    def test_name_lookup_inverse(self):
        for ev, name in EVENT_NAMES.items():
            assert NAME_TO_EVENT[name] == ev

    def test_paired_vs_point_split(self):
        assert is_paired(Ev.IRQ_TIMER)
        assert is_paired(Ev.SYSCALL)
        assert not is_paired(Ev.SCHED_SWITCH)
        assert not is_paired(Ev.MARKER)
        for ev in Ev:
            assert is_paired(ev) == (int(ev) < FIRST_POINT_EVENT)


class TestRecordLayout:
    def test_record_size(self):
        assert RECORD_SIZE == 24
        assert RECORD_DTYPE.itemsize == RECORD_SIZE

    def test_pack_unpack(self):
        # The ring-buffer writer packs with the struct; readers decode in
        # bulk with the dtype.  Both must agree field for field.
        fields = (123456789, int(Ev.IRQ_TIMER), 3, int(Flag.ENTRY), 1000, 42)
        data = RECORD_STRUCT.pack(*fields)
        assert RECORD_STRUCT.unpack(data) == fields
        assert np.frombuffer(data, dtype=RECORD_DTYPE)[0].tolist() == fields


class TestArgCodecs:
    def test_switch(self):
        assert decode_switch(encode_switch(1000, 105)) == (1000, 105)

    def test_switch_validates(self):
        with pytest.raises(ValueError):
            encode_switch(-1, 0)
        with pytest.raises(ValueError):
            encode_switch(2**31, 0)

    def test_task_state(self):
        assert decode_task_state(encode_task_state(1000, 3)) == (1000, 3)

    def test_task_state_validates(self):
        with pytest.raises(ValueError):
            encode_task_state(1, 256)

    def test_migrate(self):
        assert encode_migrate(1000, 7) == (1000 << 8) | 7

    def test_migrate_validates(self):
        with pytest.raises(ValueError):
            encode_migrate(1, 300)


class TestSinks:
    def test_null_sink_discards(self):
        NullSink().emit(0, 1, 0, 0, 0, 0)  # no error, no state

    def test_list_sink_collects(self):
        sink = ListSink()
        sink.emit(1, 2, 3, 0, 5, 6)
        assert sink.records == [(1, 2, 3, 0, 5, 6)]
        arr = sink.as_array()
        assert arr[0]["pid"] == 5


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=50, deadline=None)
def test_switch_roundtrip_property(prev, nxt):
    assert decode_switch(encode_switch(prev, nxt)) == (prev, nxt)


@given(
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=0, max_value=255),
)
@settings(max_examples=50, deadline=None)
def test_task_state_roundtrip_property(pid, state):
    assert decode_task_state(encode_task_state(pid, state)) == (pid, state)
