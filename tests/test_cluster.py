"""Unit tests for cluster-subset tracing and data-volume accounting."""

import pytest

from repro.core.cluster import ClusterStudy
from repro.util.units import MSEC
from repro.workloads import SequoiaWorkload


@pytest.fixture(scope="module")
def study():
    return ClusterStudy.run(
        lambda: SequoiaWorkload("SPHOT", nominal_ns=400 * MSEC),
        nnodes=6,
        duration_ns=400 * MSEC,
        base_seed=100,
        ncpus=2,
    )


class TestClusterStudy:
    def test_runs_distinct_nodes(self, study):
        assert len(study.runs) == 6
        seeds = {r.seed for r in study.runs}
        assert len(seeds) == 6
        # Distinct seeds -> distinct traces.
        totals = {r.analysis.total_noise_ns() for r in study.runs}
        assert len(totals) > 1

    def test_full_breakdown_normalized(self, study):
        breakdown = study.breakdown()
        assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_subset_breakdown_selects(self, study):
        sub = study.breakdown(indices=[0, 1])
        assert sum(sub.values()) == pytest.approx(1.0)

    def test_subset_error_decreases_with_size(self, study):
        convergence = study.convergence([1, 3, 6], trials=10, rng=1)
        assert convergence[6] == pytest.approx(0.0, abs=1e-12)
        assert convergence[1] >= convergence[3] >= convergence[6]

    def test_subset_error_validation(self, study):
        with pytest.raises(ValueError):
            study.subset_error(0)
        with pytest.raises(ValueError):
            study.subset_error(7)

    def test_noise_fraction(self, study):
        assert 0 < study.noise_fraction() < 0.05
        assert 0 < study.noise_fraction(indices=[0]) < 0.05

    def test_volume_accounting(self, study):
        plain = study.volume_bytes(compressed=False)
        packed = study.volume_bytes(compressed=True)
        assert 0 < packed < plain
        # Kernel event streams compress well (paper's §III-B suggestion).
        assert study.compression_ratio() > 2.0

    def test_coscheduling_benefit(self, study):
        from repro.util.units import MSEC

        result = study.coscheduling_benefit(10 * MSEC)
        assert result["penalty_unsync_ns"] > 0
        # Aligning OS activity across nodes can only help (Jones et al.).
        assert result["penalty_cosched_ns"] <= result["penalty_unsync_ns"] + 1e-9
        assert result["benefit_ratio"] >= 1.0

    def test_requires_nodes(self):
        with pytest.raises(ValueError):
            ClusterStudy([])
        with pytest.raises(ValueError):
            ClusterStudy.run(lambda: None, 0, 1)
