"""Streaming analysis must be bit-identical to the batch pipeline.

The streaming engine re-derives the batch analyzer's canonical record
order (time, then cpu, then per-CPU emission order) from per-packet
feeds, so every derived quantity — the activity table itself, per-event
statistics, noise totals, breakdowns, and timelines — must match the
batch :class:`~repro.core.analysis.NoiseAnalysis` exactly.  ``std`` is
the one exception: the streaming side accumulates moments instead of
materializing duration arrays, which is numerically equal but not
guaranteed bit-identical, so it is compared with ``isclose``.

Coverage: hand-built edge traces (gaps, truncation, out-of-range CPUs,
span overrides, empty traces, missing per-CPU streams), traces whose
windows cut blocks exactly where carried state matters, a hypothesis
grammar over random legal record streams with random packetization (also
run in live mode, with the trace end given only to ``finish``), full
simulator runs, the chunked byte decoder, and the analyze-while-
simulating execution path.  Every differential also runs the default
window-less stream (one block per packet) and compares its aggregates and
timeline bytes.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recbuild import DAEMON, IDLE, RANK, RANK2, TRACERD, RecordBuilder, meta
from repro import obs
from repro.core import NoiseAnalysis
from repro.simkernel import ComputeNode, NodeConfig, TaskKind
from repro.simkernel.distributions import from_stats
from repro.simkernel.task import TaskState
from repro.core.model import PREEMPT_EVENT, ActivityTable, TraceMeta
from repro.stream import StreamingAnalysis
from repro.tracing.ctf import Packet, Trace
from repro.tracing.events import Ev
from repro.tracing.tracer import Tracer
from repro.util.units import MSEC

EXACT_FIELDS = ("count", "freq", "avg", "max", "min", "total")


def packets_for(records, split_every=4, lost_at=None):
    """CPU-major packets, ``split_every`` records each, mimicking how the
    tracer orders a finished trace; ``lost_at`` marks one packet index as
    preceded by record loss."""
    pkts = []
    for cpu in sorted(set(records["cpu"].tolist())):
        sel = records[records["cpu"] == cpu]
        for i in range(0, len(sel), split_every):
            part = sel[i:i + split_every]
            pkts.append(Packet(
                cpu=int(cpu),
                n_records=len(part),
                lost_before=1 if len(pkts) == lost_at else 0,
                begin_ts=int(part["time"][0]),
                end_ts=int(part["time"][-1]),
                payload=part.tobytes(),
            ))
    return pkts


def chunk_collector():
    """An ``on_chunk`` callback, and a function that concatenates the
    chunks it got: the stream's whole table, as an array."""
    chunks = []

    def table():
        if not chunks:
            return ActivityTable.from_columns(0).data
        return np.concatenate(chunks)

    return (lambda index, chunk: chunks.append(chunk.data)), table


def live_stream(trace, m, quanta, window_ns, on_chunk=None):
    """Live mode: no end_ts up front; the trace end arrives with finish()."""
    sa = StreamingAnalysis(
        ncpus=trace.ncpus, start_ts=trace.start_ts, meta=m,
        window_ns=window_ns, quanta=quanta, on_chunk=on_chunk,
    )
    for packet in sorted(trace.packets, key=lambda p: p.begin_ts):
        sa.feed_packet(packet)
    return sa.finish(trace.end_ts)


def assert_tables_equal(bt, srt):
    assert len(bt) == len(srt)
    for name in bt.dtype.names:
        np.testing.assert_array_equal(bt[name], srt[name], err_msg=name)


def assert_timelines_equal(batch, stream, quanta):
    for quantum in quanta:
        assert (batch.noise_timeline(quantum).tobytes()
                == stream.noise_timeline(quantum).tobytes()), quantum


def assert_aggregates_equal(batch, stream, quanta):
    """Every query but the table: totals, breakdowns, markers, timeline
    bytes and per-event stats."""
    assert batch.breakdown_ns() == stream.breakdown_ns()
    assert batch.breakdown_fractions() == stream.breakdown_fractions()
    assert batch.total_noise_ns() == stream.total_noise_ns()
    assert batch.noise_fraction() == stream.noise_fraction()
    assert batch.noise_imbalance() == stream.noise_imbalance()
    assert batch.per_cpu_breakdown() == stream.per_cpu_breakdown()
    np.testing.assert_array_equal(
        batch.per_cpu_noise_ns(), stream.per_cpu_noise_ns()
    )
    np.testing.assert_array_equal(batch.markers(), stream.markers())
    assert_timelines_equal(batch, stream, quanta)
    for noise_only in (False, True):
        sb = batch.stats_by_event(noise_only=noise_only)
        ss = stream.stats_by_event(noise_only=noise_only)
        assert list(sb) == list(ss)
        for key in sb:
            for field in EXACT_FIELDS:
                assert getattr(sb[key], field) == getattr(ss[key], field), (
                    key, field, sb[key], ss[key],
                )
            assert np.isclose(sb[key].std, ss[key].std)


def assert_equivalent(trace, m, quanta=(25,), span_ns=None, window_ns=50,
                      live=False):
    """Full differential: batch vs streaming on every query surface.

    The default window-less stream (``window_ns=None``, one block per
    packet) is always checked too; it emits no chunks, so its aggregates
    and timelines are compared.  A windowed stream's table is its window
    chunks, concatenated.  ``live`` also runs live mode and checks its
    table (when windowed) and timelines.  Returns the batch analysis
    and the windowed stream (the window-less one without ``window_ns``).
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        batch = NoiseAnalysis(trace, meta=m, span_ns=span_ns)
        streams = [StreamingAnalysis.from_trace(
            trace, meta=m, span_ns=span_ns, quanta=quanta,
        )]
        on_chunk, table = chunk_collector()
        if window_ns is not None:
            streams.append(StreamingAnalysis.from_trace(
                trace, meta=m, span_ns=span_ns, window_ns=window_ns,
                quanta=quanta, on_chunk=on_chunk,
            ))
        on_live_chunk, live_table = chunk_collector()
        if live:
            assert span_ns is None
            online = live_stream(trace, m, quanta, window_ns, on_live_chunk)

    stream = streams[-1]
    if window_ns is not None:
        assert_tables_equal(batch.table.data, table())
    if live:
        if window_ns is not None:
            assert_tables_equal(batch.table.data, live_table())
        assert batch.total_noise_ns() == online.total_noise_ns()
        assert_timelines_equal(batch, online, quanta)
    for each in streams:
        assert_aggregates_equal(batch, each, quanta)
    return batch, stream


# ----------------------------------------------------------------------
# Hand-built edge traces
# ----------------------------------------------------------------------

def rich_two_cpu_records():
    b = RecordBuilder()
    # cpu0: nested kernel activities, a daemon preemption with a nested
    # softirq, a page fault, a marker.
    b.state(5, RANK, TaskState.RUNNING)
    b.switch(5, IDLE, RANK, cpu=0)
    b.activity(10, 30, Ev.IRQ_TIMER, cpu=0)
    b.entry(40, Ev.SYSCALL, cpu=0)
    b.entry(45, Ev.IRQ_NET, cpu=0)
    b.exit(55, Ev.IRQ_NET, cpu=0)
    b.exit(70, Ev.SYSCALL, cpu=0)
    b.state(100, RANK, TaskState.RUNNABLE)
    b.switch(100, RANK, DAEMON, cpu=0)
    b.activity(110, 130, Ev.SOFTIRQ_TIMER, cpu=0, pid=DAEMON)
    b.switch(150, DAEMON, RANK, cpu=0)
    b.state(150, RANK, TaskState.RUNNING)
    b.activity(160, 165, Ev.EXC_PAGE_FAULT, cpu=0)
    b.raw(170, Ev.MARKER, cpu=0, pid=RANK, arg=7)
    # cpu1: tracer-daemon preemption (excluded from noise), a zero-length
    # activity, and an entry left open so the trace end truncates it.
    b.state(5, RANK2, TaskState.RUNNING, cpu=1)
    b.switch(6, IDLE, RANK2, cpu=1)
    b.activity(20, 20, Ev.IRQ_TIMER, cpu=1, pid=RANK2)
    b.state(90, RANK2, TaskState.RUNNABLE, cpu=1)
    b.switch(90, RANK2, TRACERD, cpu=1)
    b.activity(95, 105, Ev.TRACER_FLUSH, cpu=1, pid=TRACERD)
    b.switch(120, TRACERD, RANK2, cpu=1)
    b.state(120, RANK2, TaskState.RUNNING, cpu=1)
    b.entry(180, Ev.SYSCALL, cpu=1, pid=RANK2)
    b.raw(185, Ev.MARKER, cpu=1, pid=RANK2, arg=9)
    return b.build()


def test_rich_trace_matches_batch():
    trace = Trace(ncpus=2, start_ts=0, end_ts=200,
                  packets=packets_for(rich_two_cpu_records()))
    batch, stream = assert_equivalent(trace, meta())
    assert len(batch.table) > 0
    assert stream.windows_emitted == 4
    assert stream.records_processed == len(trace.records())


def test_packet_granularity_is_invisible():
    """The same records split 1/3/100 per packet give identical tables."""
    records = rich_two_cpu_records()
    m = meta()
    tables = []
    for split in (1, 3, 100):
        trace = Trace(ncpus=2, start_ts=0, end_ts=200,
                      packets=packets_for(records, split_every=split))
        on_chunk, table = chunk_collector()
        StreamingAnalysis.from_trace(
            trace, meta=m, window_ns=50, on_chunk=on_chunk
        )
        tables.append(table())
    for other in tables[1:]:
        for name in tables[0].dtype.names:
            np.testing.assert_array_equal(tables[0][name], other[name])


def test_gap_resync_after_lost_records():
    """lost_before > 0 truncates open frames at the gap and resyncs; an
    orphan EXIT after the gap is skipped, exactly as in batch."""
    b = RecordBuilder()
    b.state(5, RANK, TaskState.RUNNING)
    b.switch(5, IDLE, RANK, cpu=0)
    b.entry(10, Ev.SYSCALL, cpu=0)
    b.entry(12, Ev.IRQ_TIMER, cpu=0)
    rec_a = b.build()
    b2 = RecordBuilder()
    b2.exit(42, Ev.IRQ_TIMER, cpu=0)
    b2.activity(50, 60, Ev.IRQ_NET, cpu=0)
    rec_b = b2.build()
    rec_c = (RecordBuilder()
             .state(6, RANK2, TaskState.RUNNING, cpu=1)
             .switch(90, IDLE, RANK2, cpu=1)
             .build())
    packets = [
        Packet(0, len(rec_a), 0, 5, 12, rec_a.tobytes()),
        Packet(0, len(rec_b), 3, 40, 60, rec_b.tobytes()),
        Packet(0, 0, 2, 70, 70, b""),  # empty tail packet with loss
        Packet(1, len(rec_c), 0, 6, 90, rec_c.tobytes()),
    ]
    trace = Trace(ncpus=2, start_ts=0, end_ts=100, packets=packets)
    batch, _ = assert_equivalent(trace, meta(), quanta=(30,), window_ns=40)
    assert bool(batch.table.truncated.any())
    # Both frames truncate at the gap; the outer one's self time excludes
    # the truncated inner frame, so the 30 ns are counted once.
    cpu0 = [(a.name, a.start, a.end, a.self_ns, a.truncated)
            for a in batch.activities if a.cpu == 0]
    assert cpu0 == [
        ("syscall", 10, 40, 2, True),
        ("timer_interrupt", 12, 40, 28, True),
        ("net_interrupt", 50, 60, 10, False),
    ]


def test_out_of_range_cpus_warn_and_match():
    b = RecordBuilder()
    b.state(5, RANK, TaskState.RUNNING)
    b.switch(5, IDLE, RANK, cpu=0)
    b.activity(10, 20, Ev.IRQ_TIMER, cpu=0)
    b.switch(6, IDLE, RANK2, cpu=5)
    b.activity(30, 44, Ev.IRQ_TIMER, cpu=5, pid=RANK2)
    b.activity(46, 48, Ev.SYSCALL, cpu=5, pid=RANK2)  # not noise
    rec = b.build()
    packets = []
    for cpu in (0, 5):
        sel = rec[rec["cpu"] == cpu]
        packets.append(Packet(int(cpu), len(sel), 0, int(sel["time"][0]),
                              int(sel["time"][-1]), sel.tobytes()))
    trace = Trace(ncpus=1, start_ts=0, end_ts=50, packets=packets)
    batch, _ = assert_equivalent(trace, meta(), quanta=(30,), window_ns=40)
    outside = batch.table.data[batch.table.data["cpu"] >= 1]
    assert outside["is_noise"].any() and not outside["is_noise"].all()
    excluded = len(outside)
    # Both facades count the excluded rows alike: the same warning text
    # (it carries the count) and the same obs counter increment.
    counted = []
    obs.enable()
    try:
        for facade in (NoiseAnalysis, StreamingAnalysis.from_trace):
            before = obs.counter("analysis.out_of_range_cpu").value
            with pytest.warns(RuntimeWarning, match="reference CPUs") as caught:
                facade(trace, meta=meta())
            counted.append((
                [str(w.message) for w in caught],
                obs.counter("analysis.out_of_range_cpu").value - before,
            ))
    finally:
        obs.disable()
        obs.reset()
    message = (f"{excluded} activities reference CPUs >= ncpus=1; "
               "they are excluded from noise totals")
    assert counted == [([message], excluded)] * 2


def test_span_overrides_match():
    """span_ns shorter than the record stream truncates identically."""
    b = RecordBuilder()
    b.state(2, RANK, TaskState.RUNNING)
    b.switch(2, IDLE, RANK, cpu=0)
    b.state(30, RANK, TaskState.RUNNABLE)
    b.switch(30, RANK, DAEMON, cpu=0)
    b.entry(35, Ev.SOFTIRQ_TIMER, cpu=0, pid=DAEMON)
    rec = b.build()
    # cpu1's interrupt starts at t1 for span 33, inside that span's last
    # (partial) bin: the timeline must leave it out, as batch does.
    b1 = RecordBuilder()
    b1.state(2, RANK2, TaskState.RUNNING, cpu=1)
    b1.switch(2, IDLE, RANK2, cpu=1)
    b1.activity(33, 34, Ev.IRQ_TIMER, cpu=1, pid=RANK2)
    rec1 = b1.build()
    packets = [Packet(0, len(rec), 0, 2, 35, rec.tobytes()),
               Packet(1, len(rec1), 0, 2, 34, rec1.tobytes())]
    for span in (20, 33):
        trace = Trace(ncpus=2, start_ts=0, end_ts=100, packets=packets)
        assert_equivalent(trace, meta(), quanta=(10,), span_ns=span,
                          window_ns=15)


def test_empty_trace_matches():
    trace = Trace(ncpus=2, start_ts=0, end_ts=10, packets=[])
    batch, stream = assert_equivalent(trace, meta(), quanta=(5,), window_ns=5)
    assert stream.activities_total == 0
    assert stream.total_noise_ns() == batch.total_noise_ns() == 0


def test_missing_cpu_streams_match():
    """CPUs that never produce a packet keep the global watermark at None;
    finish() must still process everything."""
    b = RecordBuilder()
    b.state(5, RANK, TaskState.RUNNING)
    b.switch(5, IDLE, RANK, cpu=0)
    b.activity(10, 30, Ev.IRQ_TIMER, cpu=0)
    rec = b.build()
    packets = [Packet(0, len(rec), 0, 5, 30, rec.tobytes())]
    trace = Trace(ncpus=4, start_ts=0, end_ts=50, packets=packets)
    assert_equivalent(trace, meta(), quanta=(20,), window_ns=25)


# ----------------------------------------------------------------------
# Block boundaries: window_ns cuts the stream at the times that matter
# ----------------------------------------------------------------------

def single_cpu_trace(records, end_ts=100):
    """One packet per record, so every window boundary cuts a block."""
    return Trace(ncpus=1, start_ts=0, end_ts=end_ts,
                 packets=packets_for(records, split_every=1))


def test_depth0_frame_open_across_two_boundaries():
    """A depth-0 frame opens inside a preemption window in block 1 and
    closes in block 3: the window's nested time waits for it."""
    b = RecordBuilder()
    b.state(1, RANK, TaskState.RUNNING)
    b.switch(1, IDLE, RANK)
    b.state(12, RANK, TaskState.RUNNABLE)
    b.switch(12, RANK, DAEMON)
    b.entry(15, Ev.SOFTIRQ_TIMER, pid=DAEMON)
    b.switch(18, DAEMON, RANK)
    b.state(18, RANK, TaskState.RUNNING)
    b.activity(22, 24, Ev.IRQ_TIMER)
    b.exit(33, Ev.SOFTIRQ_TIMER, pid=DAEMON)
    b.activity(41, 44, Ev.IRQ_NET)
    batch, _ = assert_equivalent(single_cpu_trace(b.build()), meta(),
                                 quanta=(7,), window_ns=10, live=True)
    window = batch.table.data[batch.table.data["event"] == PREEMPT_EVENT]
    assert window["self_ns"].tolist() == [(18 - 12) - (18 - 15)]


@pytest.mark.parametrize("switch_first", [False, True])
def test_zero_length_daemon_activity_on_switch_and_boundary(switch_first):
    """A zero-length daemon-context activity at t=20, where a sched_switch
    opens a preemption window and a block boundary falls."""
    b = RecordBuilder()
    b.state(1, RANK, TaskState.RUNNING)
    b.switch(1, IDLE, RANK)
    b.state(12, RANK, TaskState.RUNNABLE)
    b.switch(12, RANK, DAEMON)
    if not switch_first:
        b.activity(20, 20, Ev.IRQ_TIMER, pid=DAEMON)
    b.switch(20, DAEMON, TRACERD)
    if switch_first:
        b.activity(20, 20, Ev.IRQ_TIMER, pid=DAEMON)
    b.activity(24, 24, Ev.IRQ_TIMER, pid=TRACERD)
    b.switch(30, TRACERD, RANK)
    b.state(30, RANK, TaskState.RUNNING)
    assert_equivalent(single_cpu_trace(b.build()), meta(), quanta=(5,),
                      window_ns=10, live=True)
    assert_equivalent(single_cpu_trace(b.build()), meta(), quanta=(5,),
                      window_ns=20, live=True)


def test_gap_in_block_with_carried_frames():
    """Lost events in a block whose walk starts from frames carried in
    from the block before: both truncate at the gap."""
    rec_a = (RecordBuilder()
             .state(1, RANK, TaskState.RUNNING)
             .switch(1, IDLE, RANK)
             .entry(5, Ev.SYSCALL)
             .entry(12, Ev.IRQ_TIMER)
             .build())
    rec_b = (RecordBuilder()
             .exit(27, Ev.IRQ_TIMER)
             .activity(30, 35, Ev.IRQ_NET)
             .entry(38, Ev.EXC_PAGE_FAULT)
             .build())
    packets = [Packet(0, 1, 0, int(r["time"]), int(r["time"]), r.tobytes())
               for r in rec_a]
    packets.append(Packet(0, len(rec_b), 2, 25, 38, rec_b.tobytes()))
    trace = Trace(ncpus=1, start_ts=0, end_ts=50, packets=packets)
    batch, _ = assert_equivalent(trace, meta(), quanta=(6,), window_ns=10,
                                 live=True)
    truncated = batch.table.data[batch.table.data["truncated"]]
    assert truncated["end"].tolist() == [25, 25, 50]


def test_daemon_segment_open_at_live_finish():
    """Live mode: a daemon displaced the rank and never switched out, so
    its window and the activities inside it are decided by finish()."""
    b = RecordBuilder()
    b.state(1, RANK, TaskState.RUNNING)
    b.switch(1, IDLE, RANK)
    b.activity(10, 14, Ev.IRQ_TIMER)
    b.state(30, RANK, TaskState.RUNNABLE)
    b.switch(30, RANK, DAEMON)
    b.activity(35, 38, Ev.SOFTIRQ_TIMER, pid=DAEMON)
    b.activity(52, 52, Ev.IRQ_TIMER, pid=DAEMON)
    batch, _ = assert_equivalent(single_cpu_trace(b.build()), meta(),
                                 quanta=(9,), window_ns=10, live=True)
    rows = batch.table.data
    assert rows["is_noise"][rows["pid"] == DAEMON].all()
    window = rows[rows["event"] == PREEMPT_EVENT]
    assert window["truncated"].tolist() == [True]
    assert window["self_ns"].tolist() == [(100 - 30) - 3]


# ----------------------------------------------------------------------
# API guards
# ----------------------------------------------------------------------

def test_feed_after_finish_raises():
    sa = StreamingAnalysis(ncpus=1, start_ts=0, end_ts=10, meta=meta())
    sa.finish()
    rec = RecordBuilder().state(5, RANK, TaskState.RUNNING).build()
    with pytest.raises(RuntimeError):
        sa.feed_packet(Packet(0, len(rec), 0, 5, 5, rec.tobytes()))


def test_queries_before_finish_raise():
    sa = StreamingAnalysis(ncpus=1, start_ts=0, meta=meta())
    for query in (sa.total_noise_ns, sa.breakdown_fractions,
                  sa.noise_fraction, sa.noise_imbalance):
        with pytest.raises(RuntimeError):
            query()


def test_unconfigured_timeline_quantum_raises():
    sa = StreamingAnalysis(
        ncpus=1, start_ts=0, end_ts=10, meta=meta(), quanta=(5,)
    ).finish()
    sa.noise_timeline(5)
    with pytest.raises(ValueError, match="quantum"):
        sa.noise_timeline(7)


# ----------------------------------------------------------------------
# Window chunks
# ----------------------------------------------------------------------

def test_window_chunks_partition_the_table():
    """Emitted chunks are disjoint by window, ordered, and concatenate to
    the batch table (modulo the batch table's global sort).  Every window
    is emitted, empty ones included, and the obs counters carry the exact
    window and row totals."""
    for window_ns in (50, 7):
        trace = Trace(ncpus=2, start_ts=0, end_ts=200,
                      packets=packets_for(rich_two_cpu_records()))
        chunks = []
        obs.enable()
        try:
            sa = StreamingAnalysis.from_trace(
                trace, meta=meta(), window_ns=window_ns,
                on_chunk=lambda index, table: chunks.append((index, table)),
            )
            windows = obs.counter("stream.windows").value
            window_rows = obs.counter("stream.window_rows").value
        finally:
            obs.disable()
            obs.reset()
        indices = [index for index, _ in chunks]
        assert indices == list(range(sa.windows_emitted))
        assert any(not len(table) for _, table in chunks) == (window_ns == 7)
        assert windows == sa.windows_emitted
        assert window_rows == sa.activities_total
        assert sum(len(table) for _, table in chunks) == sa.activities_total
        for index, table in chunks:
            if len(table):
                w0 = trace.start_ts + index * window_ns
                assert int(table.start.min()) >= w0
                assert int(table.start.max()) < w0 + window_ns


def test_engine_schedule_does_not_depend_on_windows(monkeypatch):
    """Windows cut the output, not the engine: a windowed stream runs as
    many engine blocks as the window-less one on the same packets."""
    from repro.core.engine import StreamEngine

    trace = Trace(ncpus=2, start_ts=0, end_ts=200,
                  packets=packets_for(rich_two_cpu_records()))
    calls = []
    process_to = StreamEngine.process_to

    def counted(self, boundary):
        calls.append(boundary)
        return process_to(self, boundary)

    monkeypatch.setattr(StreamEngine, "process_to", counted)
    counts = []
    for window_ns in (None, 50, 7):
        del calls[:]
        StreamingAnalysis.from_trace(trace, meta=meta(), window_ns=window_ns)
        counts.append(len(calls))
    assert counts[0] > 1
    assert counts == [counts[0]] * 3


# ----------------------------------------------------------------------
# Hypothesis: random legal record streams, random packetization
# ----------------------------------------------------------------------

ACT_EVENTS = (Ev.IRQ_TIMER, Ev.IRQ_NET, Ev.SOFTIRQ_TIMER,
              Ev.EXC_PAGE_FAULT, Ev.SYSCALL)


@st.composite
def record_streams(draw):
    """A random legal per-CPU record stream: activities (possibly nested
    or left open), daemon/tracer preemptions, markers, zero-length
    activities — the constructs the reconstruction distinguishes."""
    ncpus = draw(st.integers(min_value=1, max_value=2))
    b = RecordBuilder()
    for cpu in range(ncpus):
        rank = RANK if cpu == 0 else RANK2
        t = draw(st.integers(min_value=0, max_value=8))
        b.state(t, rank, TaskState.RUNNING, cpu=cpu)
        b.switch(t, IDLE, rank, cpu=cpu)
        for _ in range(draw(st.integers(min_value=0, max_value=10))):
            t += draw(st.integers(min_value=1, max_value=30))
            if t >= 380:
                break
            op = draw(st.sampled_from(
                ["activity", "nested", "open", "preempt", "marker", "point"]
            ))
            if op == "activity":
                dur = draw(st.integers(min_value=0, max_value=25))
                event = draw(st.sampled_from(ACT_EVENTS))
                b.activity(t, t + dur, event, cpu=cpu, pid=rank)
                t += dur
            elif op == "nested":
                inner = draw(st.integers(min_value=0, max_value=10))
                pad = draw(st.integers(min_value=0, max_value=5))
                b.entry(t, Ev.SYSCALL, cpu=cpu, pid=rank)
                b.activity(t + pad, t + pad + inner, Ev.IRQ_NET,
                           cpu=cpu, pid=rank)
                t += pad + inner + draw(st.integers(min_value=0, max_value=5))
                b.exit(t, Ev.SYSCALL, cpu=cpu, pid=rank)
            elif op == "open":
                event = draw(st.sampled_from(ACT_EVENTS))
                b.entry(t, event, cpu=cpu, pid=rank)
            elif op == "preempt":
                daemon = draw(st.sampled_from([DAEMON, TRACERD]))
                dur = draw(st.integers(min_value=1, max_value=30))
                b.state(t, rank, TaskState.RUNNABLE, cpu=cpu)
                b.switch(t, rank, daemon, cpu=cpu)
                if draw(st.booleans()):
                    b.activity(t, t + min(dur, 5), Ev.SOFTIRQ_TIMER,
                               cpu=cpu, pid=daemon)
                t += dur
                b.switch(t, daemon, rank, cpu=cpu)
                b.state(t, rank, TaskState.RUNNING, cpu=cpu)
            elif op == "marker":
                b.raw(t, Ev.MARKER, cpu=cpu, pid=rank,
                      arg=draw(st.integers(min_value=0, max_value=99)))
            else:  # point: zero-length activity
                event = draw(st.sampled_from(ACT_EVENTS))
                b.activity(t, t, event, cpu=cpu, pid=rank)
    records = b.build()
    split = draw(st.integers(min_value=1, max_value=6))
    n_pkts = max(1, -(-len(records) // split))
    lost_at = draw(st.one_of(
        st.none(), st.integers(min_value=0, max_value=n_pkts - 1)
    ))
    return records, ncpus, split, lost_at


@given(
    stream=record_streams(),
    window_ns=st.sampled_from([None, 1, 7, 16, 40, 64, 1000]),
    quantum=st.sampled_from([7, 25, 64]),
    # Wall-clock epoch timestamps lie past 2**53 ns, where float64 is
    # inexact.
    epoch=st.sampled_from([0, 1_700_000_000_000_000_000]),
)
@settings(max_examples=60, deadline=None)
def test_random_streams_match_batch(stream, window_ns, quantum, epoch):
    records, ncpus, split, lost_at = stream
    records["time"] += np.uint64(epoch)
    packets = packets_for(records, split_every=split, lost_at=lost_at)
    trace = Trace(ncpus=ncpus, start_ts=epoch, end_ts=epoch + 400,
                  packets=packets)
    assert_equivalent(trace, meta(), quanta=(quantum,), window_ns=window_ns,
                      live=True)


# ----------------------------------------------------------------------
# Hypothesis: full simulator runs
# ----------------------------------------------------------------------

@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    ncpus=st.integers(min_value=1, max_value=3),
    daemon_rate=st.integers(min_value=0, max_value=200),
    window_ms=st.sampled_from([5, 17, 60]),
)
@settings(max_examples=8, deadline=None)
def test_simulated_traces_match_batch(seed, ncpus, daemon_rate, window_ms):
    node = ComputeNode(NodeConfig(ncpus=ncpus, seed=seed))
    tracer = Tracer(node)
    tracer.attach()
    from repro.workloads import FTQWorkload

    FTQWorkload().install(node)
    if daemon_rate:
        node.add_daemon(
            "stormd", TaskKind.UDAEMON, rate_per_sec=daemon_rate,
            service=from_stats(1_000, 20_000, 500_000), cpu="random",
        )
    node.run(60 * MSEC)
    trace = tracer.finish()
    assert_equivalent(trace, TraceMeta.from_node(node),
                      quanta=(MSEC,), window_ns=window_ms * MSEC)


# ----------------------------------------------------------------------
# Byte stream / decoder
# ----------------------------------------------------------------------

@given(
    chunk=st.integers(min_value=1, max_value=97),
    compress=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_byte_stream_matches_batch(chunk, compress):
    """Feeding the serialized trace in arbitrary-size pieces reproduces
    the batch result, compressed packets included."""
    trace = Trace(ncpus=2, start_ts=0, end_ts=200,
                  packets=packets_for(rich_two_cpu_records()))
    blob = trace.to_bytes(compress=compress)
    pieces = [blob[i:i + chunk] for i in range(0, len(blob), chunk)]
    stream = StreamingAnalysis.from_byte_stream(pieces, meta=meta())
    batch = NoiseAnalysis(trace, meta=meta())
    assert stream.total_noise_ns() == batch.total_noise_ns()
    assert stream.breakdown_ns() == batch.breakdown_ns()
    np.testing.assert_array_equal(
        stream.per_cpu_noise_ns(), batch.per_cpu_noise_ns()
    )


def test_byte_stream_empty_raises_batch_error():
    with pytest.raises(Exception, match="truncated"):
        StreamingAnalysis.from_byte_stream([])


# ----------------------------------------------------------------------
# Analyze-while-simulating
# ----------------------------------------------------------------------

def test_streaming_run_matches_batch_run():
    """execute_spec_streaming never assembles a trace, yet matches the
    analysis of the identically-seeded batch run exactly."""
    from repro.exec import execute_spec_streaming
    from repro.exec.spec import RunSpec

    spec = RunSpec(workload="ftq", duration_ns=300 * MSEC, seed=11, ncpus=2)
    trace, m = spec.execute()
    batch = NoiseAnalysis(trace, meta=m)
    stream = execute_spec_streaming(spec, window_ns=50 * MSEC)
    assert stream.noise_fraction() == batch.noise_fraction()
    assert stream.total_noise_ns() == batch.total_noise_ns()
    assert stream.breakdown_ns() == batch.breakdown_ns()
    np.testing.assert_array_equal(
        stream.per_cpu_noise_ns(), batch.per_cpu_noise_ns()
    )
    sb, ss = batch.stats_by_event(), stream.stats_by_event()
    assert list(sb) == list(ss)
    for key in sb:
        for field in EXACT_FIELDS:
            assert getattr(sb[key], field) == getattr(ss[key], field)
    assert stream.windows_emitted > 0


def test_tracer_packet_sink_leaves_no_packets_behind():
    node = ComputeNode(NodeConfig(ncpus=1, seed=1))
    sunk = []
    tracer = Tracer(node, packet_sink=sunk.append)
    tracer.attach()
    from repro.workloads import FTQWorkload

    FTQWorkload().install(node)
    node.run(50 * MSEC)
    shell = tracer.finish()
    assert shell.packets == []
    assert tracer.packets_streamed == len(sunk) > 0
