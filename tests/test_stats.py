"""Unit tests for repro.util.stats."""

import pytest

from repro.util.stats import (
    DurationStats,
    describe_durations,
    event_rate,
    percentile_cut,
)
from repro.util.units import SEC


class TestDescribeDurations:
    def test_basic_row(self):
        stats = describe_durations([100, 200, 300], span_ns=SEC, cpus=1)
        assert stats.count == 3
        assert stats.freq == pytest.approx(3.0)
        assert stats.avg == pytest.approx(200.0)
        assert stats.max == 300
        assert stats.min == 100
        assert stats.total == 600

    def test_per_cpu_normalization(self):
        # The paper's tables report per-CPU frequencies: 800 ticks over one
        # second on 8 CPUs is "100 ev/sec".
        stats = describe_durations([1000] * 800, span_ns=SEC, cpus=8)
        assert stats.freq == pytest.approx(100.0)

    def test_empty(self):
        stats = describe_durations([], span_ns=SEC)
        assert stats == DurationStats.empty()
        assert stats.count == 0

    def test_as_row_matches_paper_column_order(self):
        stats = describe_durations([100, 300], span_ns=SEC)
        freq, avg, mx, mn = stats.as_row()
        assert (freq, avg, mx, mn) == (2.0, 200.0, 300, 100)

    def test_rejects_bad_span(self):
        with pytest.raises(ValueError):
            describe_durations([1], span_ns=0)

    def test_rejects_bad_cpus(self):
        with pytest.raises(ValueError):
            describe_durations([1], span_ns=SEC, cpus=0)


class TestEventRate:
    def test_rate(self):
        assert event_rate(50, SEC, cpus=1) == pytest.approx(50.0)
        assert event_rate(800, SEC, cpus=8) == pytest.approx(100.0)

    def test_fractional_span(self):
        assert event_rate(5, SEC // 2) == pytest.approx(10.0)

    def test_rejects_bad_span(self):
        with pytest.raises(ValueError):
            event_rate(1, 0)


class TestPercentileCut:
    def test_cuts_tail(self):
        values = list(range(1, 101)) + [10_000]
        kept = percentile_cut(values, 99.0)
        assert 10_000 not in kept
        assert len(kept) >= 99

    def test_empty(self):
        assert percentile_cut([]).size == 0

    def test_keeps_all_at_100(self):
        values = [1, 2, 3, 1000]
        assert len(percentile_cut(values, 100.0)) == 4
