"""Unit tests for the NoiseAnalysis facade."""

import numpy as np
import pytest

from repro.core import NoiseAnalysis, NoiseCategory
from repro.simkernel.task import TaskState
from repro.tracing.events import Ev
from repro.util.units import SEC
from recbuild import DAEMON, RANK, RecordBuilder, meta


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
