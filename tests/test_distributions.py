"""Unit + property tests for the duration/interval distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel.distributions import (
    Bimodal,
    Constant,
    Mixture,
    ShiftedLogNormal,
    Uniform,
    from_stats,
)


@pytest.fixture
def rng():
    return np.random.default_rng(123)


class TestConstant:
    def test_sample(self, rng):
        assert Constant(42).sample(rng) == 42

    def test_mean(self):
        assert Constant(42).mean() == 42.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Constant(-1)


class TestUniform:
    def test_bounds(self, rng):
        model = Uniform(10, 20)
        samples = [model.sample(rng) for _ in range(200)]
        assert all(10 <= s <= 20 for s in samples)

    def test_mean(self):
        assert Uniform(10, 20).mean() == 15.0

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Uniform(20, 10)


class TestShiftedLogNormal:
    def test_from_mean_hits_mean(self, rng):
        model = ShiftedLogNormal.from_mean(250, 2500, sigma=0.5)
        samples = np.array([model.sample(rng) for _ in range(40_000)])
        assert samples.mean() == pytest.approx(2500, rel=0.05)
        assert model.mean() == pytest.approx(2500, rel=1e-9)

    def test_respects_offset_floor(self, rng):
        model = ShiftedLogNormal.from_mean(1000, 1500, sigma=0.6)
        assert min(model.sample(rng) for _ in range(5000)) >= 1000

    def test_cap(self, rng):
        model = ShiftedLogNormal.from_mean(100, 5000, sigma=2.0, cap_ns=10_000)
        assert max(model.sample(rng) for _ in range(5000)) <= 10_000

    def test_rejects_mean_below_offset(self):
        with pytest.raises(ValueError):
            ShiftedLogNormal.from_mean(1000, 900, sigma=0.5)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            ShiftedLogNormal(0, 1.0, 0.0)


class TestBimodal:
    def test_two_peaks(self, rng):
        model = Bimodal(Constant(100), Constant(1000), second_weight=0.5)
        samples = {model.sample(rng) for _ in range(100)}
        assert samples == {100, 1000}

    def test_mean(self):
        model = Bimodal(Constant(100), Constant(1000), second_weight=0.25)
        assert model.mean() == pytest.approx(325.0)

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            Bimodal(Constant(1), Constant(2), second_weight=1.5)


class TestMixture:
    def test_weighted_mean(self):
        model = Mixture((Constant(0), Constant(100)), (3.0, 1.0))
        assert model.mean() == pytest.approx(25.0)

    def test_sampling_proportions(self, rng):
        model = Mixture((Constant(0), Constant(1)), (0.8, 0.2))
        samples = [model.sample(rng) for _ in range(20_000)]
        assert np.mean(samples) == pytest.approx(0.2, abs=0.02)

    def test_rejects_mismatched(self):
        with pytest.raises(ValueError):
            Mixture((Constant(1),), (0.5, 0.5))

    def test_rejects_zero_weights(self):
        with pytest.raises(ValueError):
            Mixture((Constant(1), Constant(2)), (0.0, 0.0))


class TestFromStats:
    def test_mean_matches_paper_row(self, rng):
        # AMG's net_rx_action row from Table III.
        model = from_stats(192, 3031, 98_570)
        samples = np.array([model.sample(rng) for _ in range(60_000)])
        assert samples.mean() == pytest.approx(3031, rel=0.08)

    def test_bounds(self, rng):
        model = from_stats(250, 4380, 69_398_061)
        samples = np.array([model.sample(rng) for _ in range(20_000)])
        assert samples.min() >= 250
        assert samples.max() <= 69_398_061

    def test_floor_observable(self, rng):
        # The floor component makes near-min samples appear in finite runs.
        model = from_stats(250, 4380, 100_000)
        samples = np.array([model.sample(rng) for _ in range(20_000)])
        assert samples.min() < 600

    def test_tail_observable_with_heavy_weight(self, rng):
        model = from_stats(200, 1500, 350_000, tail_weight=5e-3)
        samples = np.array([model.sample(rng) for _ in range(50_000)])
        assert samples.max() > 150_000

    def test_degenerate_constant(self):
        assert isinstance(from_stats(100, 100, 100), Constant)

    def test_rejects_inconsistent_row(self):
        with pytest.raises(ValueError):
            from_stats(100, 50, 200)
        with pytest.raises(ValueError):
            from_stats(0, 50, 200)


# ----------------------------------------------------------------------
# Property-based invariants
# ----------------------------------------------------------------------

@st.composite
def stat_rows(draw):
    min_ns = draw(st.integers(min_value=1, max_value=10_000))
    avg_mult = draw(st.floats(min_value=1.0, max_value=50.0))
    max_mult = draw(st.floats(min_value=1.0, max_value=1e4))
    avg = min_ns * avg_mult
    mx = int(max(avg * max_mult, avg + 1))
    return min_ns, avg, mx


@given(stat_rows(), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60, deadline=None)
def test_from_stats_samples_always_in_bounds(row, seed):
    min_ns, avg, mx = row
    model = from_stats(min_ns, avg, mx)
    rng = np.random.default_rng(seed)
    for _ in range(50):
        s = model.sample(rng)
        assert min_ns <= s <= mx


@given(stat_rows())
@settings(max_examples=40, deadline=None)
def test_from_stats_mean_is_close(row):
    min_ns, avg, mx = row
    model = from_stats(min_ns, avg, mx)
    # Analytic mean of the mixture tracks the requested average; the cap on
    # the bulk lognormal can only lower it, so allow a one-sided slack.
    assert model.mean() <= avg * 1.2 + 1
    assert model.mean() >= min_ns
