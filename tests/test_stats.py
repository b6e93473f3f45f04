"""Unit tests for repro.util.stats."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.histogram import duration_histogram
from repro.util.stats import DurationStats, describe_durations
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


#: Negative values, values past 2**32 (the Python-int squares) and small
#: ones; at most 64 of them at most 2**40 apart from 0, so every sum stays
#: below 2**53 and ``np.mean`` is exact before its one division.
_VALUES = st.lists(
    st.integers(-(2**40), 2**40) | st.integers(2**32 - 2, 2**32 + 2)
    | st.integers(0, 1000),
    min_size=1, max_size=64,
)


@given(values=_VALUES)
@settings(max_examples=300, deadline=None)
def test_describe_durations_matches_numpy(values):
    """Every field but ``std`` equals numpy's; ``std`` is within 1e-12
    relative of ``np.std``, give or take ``np.std``'s own rounding (its
    float mean is off by up to an ulp of the largest value), and within
    1e-14 relative of the exact deviation."""
    arr = np.array(values, dtype=np.int64)
    got = describe_durations(arr, SEC, cpus=2)
    assert (got.count, got.total, got.min, got.max) == (
        arr.size, int(arr.sum()), int(arr.min()), int(arr.max()))
    assert got.avg == float(arr.mean())
    assert got.freq == arr.size / 2
    scale = 4 * np.finfo(np.float64).eps * float(np.abs(arr).max())
    assert math.isclose(got.std, float(arr.std()), rel_tol=1e-12,
                        abs_tol=scale)
    assert math.isclose(got.std, statistics.pstdev(values), rel_tol=1e-14)
    if arr.size == 1:
        assert got.std == 0.0


class TestEventRate:
    """The ``freq`` column is events per CPU-second of the window."""

    def test_rate(self):
        assert describe_durations([1] * 50, SEC).freq == pytest.approx(50.0)
        assert describe_durations([1] * 800, SEC, cpus=8).freq == (
            pytest.approx(100.0)
        )

    def test_fractional_span(self):
        assert describe_durations([1] * 5, SEC // 2).freq == pytest.approx(10.0)

    def test_rejects_bad_span(self):
        with pytest.raises(ValueError):
            describe_durations([1], span_ns=-1)


class TestPercentileCut:
    """The paper's 99th-percentile histogram trim (footnote 3)."""

    def test_cuts_tail(self):
        values = list(range(1, 101)) + [10_000]
        hist = duration_histogram(values, cut_pct=99.0)
        assert hist.edges[-1] < 10_000
        assert hist.n_total == 101
        assert 99 <= hist.n_kept < 101

    def test_empty(self):
        hist = duration_histogram([])
        assert hist.n_kept == 0 and int(hist.counts.sum()) == 0

    def test_keeps_all_at_100(self):
        hist = duration_histogram([1, 2, 3, 1000], cut_pct=100.0)
        assert hist.n_kept == 4 and int(hist.counts.sum()) == 4
