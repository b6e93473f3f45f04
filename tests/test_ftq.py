"""Unit tests for the FTQ workload and its output replay."""

import numpy as np
import pytest

from repro.core import SyntheticNoiseChart
from repro.workloads import (
    DEFAULT_OP_NS,
    DEFAULT_QUANTUM_NS,
    ftq_output,
)
from repro.workloads.ftq_host import run_host_ftq
from repro.util.units import SEC


class TestFtqWorkload:
    def test_single_rank_spins_on_chosen_cpu(self, ftq_run):
        node, trace, meta = ftq_run
        ranks = [t for t in node.tasks.values() if t.is_application]
        assert len(ranks) == 1
        assert ranks[0].home_cpu == 0

    def test_eventd_daemon_present(self, ftq_run):
        node, _, _ = ftq_run
        names = {t.name for t in node.tasks.values()}
        assert "eventd" in names


class TestFtqOutput:
    def test_validation_properties(self, ftq_analysis):
        cmp = ftq_output(ftq_analysis, cpu=0)
        assert len(cmp.ftq_noise_ns) == 2 * SEC // DEFAULT_QUANTUM_NS
        # Figure 1: the two charts agree closely...
        assert cmp.correlation() > 0.95
        # ...and FTQ overestimates slightly (discretization), Section III-C.
        assert cmp.mean_overestimate_ns() >= 0.0
        assert cmp.mean_abs_error_ns() < DEFAULT_OP_NS

    def test_noise_detected_in_some_quanta(self, ftq_analysis):
        cmp = ftq_output(ftq_analysis, cpu=0)
        assert (cmp.trace_noise_ns > 0).sum() > 50

    def test_counts_never_negative(self, ftq_analysis):
        cmp = ftq_output(ftq_analysis, cpu=0)
        assert cmp.ftq_counts.min() >= 0

    def test_chart_decomposes_quanta(self, ftq_analysis):
        # Every noisy FTQ quantum corresponds to >= 1 trace interruption.
        cmp = ftq_output(ftq_analysis, cpu=0)
        chart = SyntheticNoiseChart(ftq_analysis, cpu=0)
        noisy = np.where(cmp.trace_noise_ns > 1000)[0]
        assert noisy.size > 0
        for q in noisy[:20]:
            begin = cmp.times[q]
            end = begin + cmp.quantum_ns
            inside = [g for g in chart.interruptions if begin <= g.start < end]
            assert inside


class TestHostFtq:
    def test_runs_and_counts(self):
        result = run_host_ftq(duration_s=0.05, quantum_ms=1.0)
        assert result.counts.size >= 10
        assert result.n_max > 0
        assert result.op_ns_estimate > 0
        assert (result.noise_ns() >= 0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            run_host_ftq(duration_s=0)
