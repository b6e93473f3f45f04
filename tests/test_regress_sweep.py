"""Tests for profile comparison (regress) and seed sweeps."""

import dataclasses

import numpy as np
import pytest

from repro.core import NoiseAnalysis, NoiseCategory, TraceMeta
from repro.core.regress import Verdict, compare_profiles
from repro.core.sweep import MetricSummary, SeedSweep
from repro.tracing.events import Ev
from repro.util.units import MSEC, SEC
from repro.workloads import SequoiaWorkload
from recbuild import RecordBuilder, meta


def analysis_of(records, span_ns=SEC):
    return NoiseAnalysis(records, meta=meta(), span_ns=span_ns)


class TestCompareProfiles:
    def _baseline(self):
        b = RecordBuilder()
        for i in range(10):
            b.activity(i * 1000, i * 1000 + 500, Ev.EXC_PAGE_FAULT)
            b.activity(i * 1000 + 600, i * 1000 + 700, Ev.IRQ_TIMER)
        return analysis_of(b.build())

    def _improved(self):
        b = RecordBuilder()
        for i in range(10):
            b.activity(i * 1000, i * 1000 + 100, Ev.EXC_PAGE_FAULT)  # 5x cheaper
            b.activity(i * 1000 + 600, i * 1000 + 700, Ev.IRQ_TIMER)
            b.activity(i * 1000 + 800, i * 1000 + 850, Ev.TASKLET_NET_TX)  # new
        return analysis_of(b.build())

    def test_verdicts(self):
        comparison = compare_profiles(self._baseline(), self._improved())
        verdict_of = {d.name: d.verdict for d in comparison.deltas}
        assert verdict_of["page_fault"] == Verdict.IMPROVED
        assert verdict_of["timer_interrupt"] == Verdict.UNCHANGED
        assert verdict_of["net_tx_action"] == Verdict.NEW
        assert comparison.total_verdict == Verdict.IMPROVED

    def test_gone_event(self):
        comparison = compare_profiles(self._improved(), self._baseline())
        verdict_of = {d.name: d.verdict for d in comparison.deltas}
        assert verdict_of["net_tx_action"] == Verdict.GONE
        assert verdict_of["page_fault"] == Verdict.REGRESSED

    def test_report_mentions_biggest_mover_first(self):
        report = compare_profiles(self._baseline(), self._improved()).report()
        lines = [l for l in report.splitlines() if l.strip()]
        assert "page_fault" in lines[1]
        assert "total noise" in lines[0]

    def test_regressions_and_improvements_lists(self):
        comparison = compare_profiles(self._baseline(), self._improved())
        assert {d.name for d in comparison.improvements()} == {"page_fault"}
        assert {d.name for d in comparison.regressions()} == {"net_tx_action"}

    def test_threshold_validation(self):
        a = self._baseline()
        with pytest.raises(ValueError):
            compare_profiles(a, a, threshold=-0.1)

    def test_identical_profiles_unchanged(self):
        a = self._baseline()
        comparison = compare_profiles(a, a)
        assert comparison.total_verdict == Verdict.UNCHANGED
        assert all(d.verdict == Verdict.UNCHANGED for d in comparison.deltas)

    def test_on_policy_ablation(self):
        # Deprioritizing user daemons must read as a preemption improvement.
        def run(flag):
            workload = SequoiaWorkload("UMT", nominal_ns=800 * MSEC)
            node = workload.build_node(seed=52, ncpus=4)
            node = type(node)(
                dataclasses.replace(
                    node.config, deprioritize_user_daemons=flag
                )
            )
            from repro.tracing.tracer import Tracer

            tracer = Tracer(node)
            tracer.attach()
            workload.install(node)
            node.run(800 * MSEC)
            return NoiseAnalysis(tracer.finish(), meta=TraceMeta.from_node(node))

        comparison = compare_profiles(run(False), run(True))
        improved = {d.name for d in comparison.improvements()}
        assert any("python" in name for name in improved)


class TestMetricSummary:
    def test_statistics(self):
        summary = MetricSummary("m", np.array([1.0, 2.0, 3.0]))
        assert summary.mean == 2.0
        assert summary.std == pytest.approx(1.0)
        low, high = summary.confidence_interval()
        assert low < 2.0 < high

    def test_single_value(self):
        summary = MetricSummary("m", np.array([5.0]))
        assert summary.std == 0.0
        assert summary.cv == 0.0

    def test_single_value_ci_is_infinitely_wide(self):
        # One run says nothing about spread; the CI must not collapse to a
        # zero-width "converged" interval.
        low, high = MetricSummary("m", np.array([5.0])).confidence_interval()
        assert low == -np.inf and high == np.inf

    def test_negative_mean_cv_is_positive(self):
        summary = MetricSummary("m", np.array([-1.0, -2.0, -3.0]))
        assert summary.mean < 0
        assert summary.cv > 0
        assert summary.cv == pytest.approx(summary.std / 2.0)

    def test_describe(self):
        text = MetricSummary("m", np.array([1.0, 2.0])).describe()
        assert "m:" in text and "CI" in text

    def test_describe_single_value_shows_unbounded_ci(self):
        text = MetricSummary("m", np.array([5.0])).describe()
        assert "inf" in text


class TestSeedSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return SeedSweep.run(
            "SPHOT",
            duration_ns=400 * MSEC,
            seeds=[1, 2, 3, 4],
            ncpus=2,
        )

    def test_metric_across_seeds(self, sweep):
        summary = sweep.noise_fraction()
        assert len(summary.values) == 4
        assert summary.mean > 0
        assert summary.cv < 1.0  # sane spread

    def test_stat_metric(self, sweep):
        freq = sweep.stat_metric("timer_interrupt", "freq")
        assert freq.mean == pytest.approx(100, rel=0.1)
        assert freq.cv < 0.05  # the tick is nearly deterministic

    def test_breakdown_metric(self, sweep):
        periodic = sweep.metric(
            "breakdown.periodic",
            lambda a: a.breakdown_fractions().get(NoiseCategory.PERIODIC,
                                                  0.0),
        )
        assert 0 < periodic.mean < 1

    def test_summary_table(self, sweep):
        text = sweep.summary_table(["timer_interrupt"])
        assert "noise_fraction" in text
        assert "timer_interrupt.freq" in text

    def test_validation(self, sweep):
        with pytest.raises(ValueError):
            SeedSweep([])
        with pytest.raises(ValueError):
            sweep.stat_metric("timer_interrupt", "median")
