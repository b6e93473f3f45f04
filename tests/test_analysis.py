"""Unit tests for the NoiseAnalysis facade."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core import NoiseAnalysis, NoiseCategory, TraceMeta
from repro.simkernel.task import TaskState
from repro.tracing.ctf import Trace
from repro.tracing.events import Ev
from repro.util.units import MSEC, SEC
from repro.workloads import SequoiaWorkload
from recbuild import DAEMON, RANK, RecordBuilder, meta


# sha256 of NoiseAnalysis outputs on disordered input (TestChronology).
SHUFFLED_TABLE_SHA256 = (
    "f1fa81fdfbedbded25fd59d3f15ddcaa6bf66445af85e4252b1d27bffdcd5303"
)
SHUFFLED_RECORDS_SHA256 = (
    "8e22349839b2def3fe0ee5e6e286bfe80b0154b9a1b62d321af8351a08b12323"
)
SHUFFLED_MARKERS_SHA256 = (
    "d593a1a0ec8ebdf613dcf979de539e3c5aa065637a7be5e231d0a474a92c195b"
)
PACKET_TABLE_SHA256 = (
    "e086751ec4797e18920b8128dc9315b8efc7d5be14a10c63f39d8510099b358c"
)
PACKET_RECORDS_SHA256 = (
    "9e0a7b525bae6a23f67ded43a03c95dc37e547ffef782012b8c235bb652b84fc"
)
PACKET_MARKERS_SHA256 = (
    "d593a1a0ec8ebdf613dcf979de539e3c5aa065637a7be5e231d0a474a92c195b"
)


def analysis_of(records, span_ns=None, ncpus=1):
    return NoiseAnalysis(records, meta=meta(), span_ns=span_ns, ncpus=ncpus)


class TestStats:
    def test_table_row_shape(self):
        b = RecordBuilder()
        for i in range(10):
            b.activity(i * 1000, i * 1000 + 100, Ev.IRQ_TIMER)
        an = analysis_of(b.build(), span_ns=SEC)
        row = an.stats("timer_interrupt")
        assert row.count == 10
        assert row.freq == pytest.approx(10.0)
        assert row.avg == pytest.approx(100.0)

    def test_per_cpu_frequency_normalization(self):
        b = RecordBuilder()
        for cpu in range(4):
            for i in range(5):
                b.activity(i * 1000, i * 1000 + 50, Ev.IRQ_TIMER, cpu=cpu)
        an = analysis_of(b.build(), span_ns=SEC, ncpus=4)
        assert an.stats("timer_interrupt").freq == pytest.approx(5.0)

    def test_stats_use_self_time(self):
        records = (
            RecordBuilder()
            .entry(0, Ev.SOFTIRQ_TIMER)
            .activity(100, 400, Ev.IRQ_NET)
            .exit(1000, Ev.SOFTIRQ_TIMER)
            .build()
        )
        an = analysis_of(records, span_ns=SEC)
        assert an.stats("run_timer_softirq").avg == pytest.approx(700.0)

    def test_unknown_event_name(self):
        an = analysis_of(RecordBuilder().build(), span_ns=SEC)
        with pytest.raises(ValueError):
            an.stats("not_an_event")

    def test_preemption_pseudo_event_accessible(self):
        records = (
            RecordBuilder()
            .state(1000, RANK, TaskState.RUNNABLE)
            .switch(1000, RANK, DAEMON)
            .switch(4000, DAEMON, RANK)
            .state(4000, RANK, TaskState.RUNNING)
            .build()
        )
        an = analysis_of(records, span_ns=SEC)
        row = an.stats("preemption")
        assert row.count == 1
        assert row.avg == pytest.approx(3000.0)

    def test_stats_by_event_noise_only(self):
        records = (
            RecordBuilder()
            .activity(100, 200, Ev.IRQ_TIMER)
            .activity(300, 400, Ev.SYSCALL)
            .build()
        )
        an = analysis_of(records, span_ns=SEC)
        rows = an.stats_by_event(noise_only=True)
        assert "timer_interrupt" in rows
        assert "syscall" not in rows
        all_rows = an.stats_by_event(noise_only=False)
        assert "syscall" in all_rows


class TestBreakdown:
    def test_fractions_sum_to_one(self):
        records = (
            RecordBuilder()
            .activity(100, 200, Ev.IRQ_TIMER)
            .activity(300, 700, Ev.EXC_PAGE_FAULT)
            .activity(900, 1000, Ev.IRQ_NET)
            .build()
        )
        an = analysis_of(records, span_ns=SEC)
        fractions = an.breakdown_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert fractions[NoiseCategory.PAGE_FAULT] == pytest.approx(400 / 600)

    def test_service_not_in_breakdown(self):
        records = RecordBuilder().activity(0, 100, Ev.SYSCALL).build()
        an = analysis_of(records, span_ns=SEC)
        assert an.total_noise_ns() == 0
        assert all(v == 0 for v in an.breakdown_ns().values())

    def test_noise_fraction(self):
        records = RecordBuilder().activity(0, 1000, Ev.IRQ_TIMER).build()
        an = analysis_of(records, span_ns=1000, ncpus=1)
        assert an.noise_fraction() == pytest.approx(1.0)


class TestSelect:
    def test_select_by_cpu_and_noise(self):
        records = (
            RecordBuilder()
            .activity(0, 100, Ev.IRQ_TIMER, cpu=0)
            .activity(0, 100, Ev.IRQ_TIMER, cpu=1)
            .activity(200, 300, Ev.SYSCALL, cpu=0)
            .build()
        )
        an = analysis_of(records, span_ns=SEC, ncpus=2)
        assert len(an.select(cpu=0)) == 2
        assert len(an.select(cpu=0, noise_only=True)) == 1
        assert len(an.select(event="timer_interrupt")) == 2

    def test_truncated_excluded_by_default(self):
        records = RecordBuilder().entry(100, Ev.SYSCALL).build()
        an = analysis_of(records, span_ns=SEC)
        assert an.select(event="syscall") == []
        assert len(an.select(event="syscall", include_truncated=True)) == 1


class TestTimelines:
    def test_noise_timeline_bins(self):
        records = (
            RecordBuilder()
            .activity(100, 200, Ev.IRQ_TIMER)        # quantum 0
            .activity(1500, 1800, Ev.EXC_PAGE_FAULT)  # quantum 1
            .build()
        )
        an = analysis_of(records, span_ns=3000)
        timeline = an.noise_timeline(1000)
        assert len(timeline) == 3
        assert timeline[0] == pytest.approx(100.0)
        assert timeline[1] == pytest.approx(300.0)
        assert timeline[2] == pytest.approx(0.0)

    def test_activity_split_across_quanta(self):
        records = RecordBuilder().activity(900, 1100, Ev.IRQ_TIMER).build()
        an = analysis_of(records, span_ns=2000)
        # Align quanta at t=0 explicitly (start_ts is the first record).
        timeline = an.noise_timeline(1000, t0=0, t1=2000)
        assert timeline[0] == pytest.approx(100.0)
        assert timeline[1] == pytest.approx(100.0)

    def test_user_time_cumulative(self):
        records = RecordBuilder().activity(400, 600, Ev.IRQ_TIMER).build()
        an = analysis_of(records, span_ns=1000)
        rows = an.user_time_cumulative(0, 0, 1000)
        # Total user time: 1000 - 200 kernel.
        assert rows[-1][1] == 800

    def test_rejects_bad_quantum(self):
        an = analysis_of(RecordBuilder().build(), span_ns=SEC)
        with pytest.raises(ValueError):
            an.noise_timeline(0)


class TestPerCpu:
    def test_per_cpu_noise(self):
        records = (
            RecordBuilder()
            .activity(0, 1000, Ev.IRQ_TIMER, cpu=0)
            .activity(0, 300, Ev.IRQ_TIMER, cpu=1)
            .build()
        )
        an = analysis_of(records, span_ns=SEC, ncpus=2)
        per_cpu = an.per_cpu_noise_ns()
        assert list(per_cpu) == [1000, 300]

    def test_per_cpu_breakdown(self):
        records = (
            RecordBuilder()
            .activity(0, 500, Ev.EXC_PAGE_FAULT, cpu=0)
            .activity(0, 200, Ev.IRQ_NET, cpu=1)
            .build()
        )
        an = analysis_of(records, span_ns=SEC, ncpus=2)
        breakdown = an.per_cpu_breakdown()
        assert breakdown[0][NoiseCategory.PAGE_FAULT] == 500
        assert breakdown[1][NoiseCategory.IO] == 200
        assert breakdown[1][NoiseCategory.PAGE_FAULT] == 0

    def test_imbalance_metric(self):
        records = (
            RecordBuilder()
            .activity(0, 900, Ev.IRQ_TIMER, cpu=0)
            .activity(0, 100, Ev.IRQ_TIMER, cpu=1)
            .build()
        )
        an = analysis_of(records, span_ns=SEC, ncpus=2)
        assert an.noise_imbalance() == pytest.approx(900 / 500)

    def test_imbalance_of_silence_is_one(self):
        an = analysis_of(RecordBuilder().build(), span_ns=SEC, ncpus=4)
        assert an.noise_imbalance() == 1.0

    def test_real_run_consistency(self, amg_analysis):
        per_cpu = amg_analysis.per_cpu_noise_ns()
        assert int(per_cpu.sum()) == amg_analysis.total_noise_ns()
        assert amg_analysis.noise_imbalance() >= 1.0


class TestTraceInput:
    def test_accepts_trace_object(self, ftq_run):
        node, trace, m = ftq_run
        an = NoiseAnalysis(trace, meta=m)
        assert an.ncpus == 2
        assert an.total_noise_ns() > 0

    def test_records_match_trace_records(self, ftq_run, ftq_analysis):
        # The engine's one canonical-order block is byte-equal to the
        # stable time sort of a tracer-written (CPU-major) trace.
        node, trace, m = ftq_run
        assert ftq_analysis.records.tobytes() == trace.records().tobytes()
    def test_markers_match_record_markers(self, lammps_analysis):
        # The engine's markers are the MARKER records in canonical order.
        from repro.core.analysis import marker_rows

        marks = lammps_analysis.markers()
        assert len(marks)
        assert marks.tobytes() == (
            marker_rows(lammps_analysis.records).tobytes()
        )


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class TestChronology:
    """Batch analysis of records the tracer never writes: out of time
    order within a CPU.  The digests are those of sorting each block as a
    whole by (time, cpu, sequence); they pin that the per-CPU time sort
    of a disordered span keeps every output byte (table, records,
    markers)."""

    @pytest.fixture(scope="class")
    def amg_100ms(self):
        node, trace = SequoiaWorkload("AMG", nominal_ns=100 * MSEC).run_traced(
            100 * MSEC, seed=1
        )
        return trace, TraceMeta.from_node(node)

    def test_shuffled_raw_array(self, amg_100ms):
        trace, m = amg_100ms
        records = trace.records()
        shuffled = records[np.random.default_rng(7).permutation(len(records))]
        an = NoiseAnalysis(shuffled, meta=m)
        assert _sha(an.table.data) == SHUFFLED_TABLE_SHA256
        assert _sha(an.records) == SHUFFLED_RECORDS_SHA256
        assert _sha(an.markers()) == SHUFFLED_MARKERS_SHA256

    def test_packet_out_of_order(self, amg_100ms):
        # One packet's records shuffled; it also follows lost events, so
        # the gap anchors into the disordered span.
        trace, m = amg_100ms
        packets = list(trace.packets)
        victim = packets[3]
        records = victim.records()
        shuffled = records[np.random.default_rng(3).permutation(len(records))]
        packets[3] = dataclasses.replace(
            victim, payload=shuffled.tobytes(), lost_before=2
        )
        an = NoiseAnalysis(
            Trace(trace.ncpus, trace.start_ts, trace.end_ts, packets), meta=m
        )
        assert _sha(an.table.data) == PACKET_TABLE_SHA256
        assert _sha(an.records) == PACKET_RECORDS_SHA256
        assert _sha(an.markers()) == PACKET_MARKERS_SHA256


class TestMemo:
    def test_breakdown_is_fresh_per_call(self, amg_analysis):
        first = amg_analysis.breakdown_ns()
        first[NoiseCategory.PERIODIC] = -1
        second = amg_analysis.breakdown_ns()
        assert second is not first
        assert second[NoiseCategory.PERIODIC] > 0
        assert sum(second.values()) == amg_analysis.total_noise_ns()
