"""Unit tests for the synthetic OS noise chart."""

import pytest

from repro.core import (
    ActivityTable,
    NoiseAnalysis,
    SyntheticNoiseChart,
    build_interruptions,
)
from repro.tracing.events import Ev
from repro.util.units import SEC
from recbuild import RecordBuilder, meta


def analysis_of(records, span_ns=SEC):
    return NoiseAnalysis(records, meta=meta(), span_ns=span_ns)


class TestGrouping:
    def test_adjacent_activities_merge(self):
        # timer irq immediately followed by its softirq: one interruption.
        records = (
            RecordBuilder()
            .activity(1000, 3178, Ev.IRQ_TIMER)
            .activity(3178, 5020, Ev.SOFTIRQ_TIMER)
            .build()
        )
        an = analysis_of(records)
        groups = build_interruptions(an.table)
        assert len(groups) == 1
        assert groups[0].signature() == ("timer_interrupt", "run_timer_softirq")
        assert groups[0].noise_ns == 2178 + 1842

    def test_distant_activities_split(self):
        records = (
            RecordBuilder()
            .activity(1000, 2000, Ev.IRQ_TIMER)
            .activity(50_000, 51_000, Ev.EXC_PAGE_FAULT)
            .build()
        )
        an = analysis_of(records)
        groups = build_interruptions(an.table)
        assert len(groups) == 2

    def test_merge_gap_controls_grouping(self):
        records = (
            RecordBuilder()
            .activity(1000, 2000, Ev.IRQ_TIMER)
            .activity(2400, 3000, Ev.EXC_PAGE_FAULT)
            .build()
        )
        an = analysis_of(records)
        assert len(build_interruptions(an.table, merge_gap_ns=100)) == 2
        assert len(build_interruptions(an.table, merge_gap_ns=500)) == 1

    def test_nested_activity_stays_in_group(self):
        records = (
            RecordBuilder()
            .entry(1000, Ev.EXC_PAGE_FAULT)
            .activity(1200, 1500, Ev.IRQ_TIMER)
            .exit(2000, Ev.EXC_PAGE_FAULT)
            .build()
        )
        an = analysis_of(records)
        groups = build_interruptions(an.table)
        assert len(groups) == 1
        # Sum of self times == wall union: no double counting.
        assert groups[0].noise_ns == 1000

    def test_per_cpu_grouping(self):
        records = (
            RecordBuilder()
            .activity(1000, 2000, Ev.IRQ_TIMER, cpu=0)
            .activity(1000, 2000, Ev.IRQ_TIMER, cpu=1)
            .build()
        )
        an = NoiseAnalysis(records, meta=meta(), span_ns=SEC, ncpus=2)
        assert len(build_interruptions(an.table)) == 2
        assert len(build_interruptions(an.table, cpu=0)) == 1

    def test_rejects_negative_gap(self):
        with pytest.raises(ValueError):
            build_interruptions(ActivityTable.empty(), merge_gap_ns=-1)


class TestChartQueries:
    def _chart(self):
        records = (
            RecordBuilder()
            .activity(1000, 2000, Ev.IRQ_TIMER)
            .activity(100_000, 108_000, Ev.EXC_PAGE_FAULT)
            .activity(200_000, 200_500, Ev.IRQ_NET)
            .build()
        )
        return SyntheticNoiseChart(analysis_of(records))

    def test_series(self):
        chart = self._chart()
        times, noise = chart.series()
        assert list(times) == [1000, 100_000, 200_000]
        assert list(noise) == [1000, 8000, 500]

    def test_window(self):
        chart = self._chart()
        assert len(chart.window(0, 150_000)) == 2

    def test_at_exact_and_slack(self):
        chart = self._chart()
        assert chart.at(1500).noise_ns == 1000
        assert chart.at(99_000) is None
        assert chart.at(99_000, slack_ns=2000).noise_ns == 8000

    def test_largest(self):
        chart = self._chart()
        assert [g.noise_ns for g in chart.largest(2)] == [8000, 1000]

    def test_total(self):
        assert self._chart().total_noise_ns() == 9500
