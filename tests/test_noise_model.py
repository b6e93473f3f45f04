"""Tests for noise cloning (fit + replay) and the Empirical model."""

import numpy as np
import pytest

from repro.core import NoiseAnalysis, TraceMeta
from repro.core.noise_model import NoiseProfile, fit_noise_profile
from repro.simkernel import ComputeNode, NodeConfig
from repro.simkernel.distributions import Empirical
from repro.tracing.tracer import Tracer
from repro.util.units import SEC
from repro.workloads.synthetic import SpinProgram


class TestEmpirical:
    def test_resamples_observed_values(self):
        model = Empirical([10, 20, 30])
        rng = np.random.default_rng(0)
        seen = {model.sample(rng) for _ in range(200)}
        assert seen == {10, 20, 30}
        assert model.mean() == pytest.approx(20.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Empirical([])
        with pytest.raises(ValueError):
            Empirical([-1])


class TestFit:
    def test_fits_sources_from_ftq(self, ftq_analysis):
        profile = fit_noise_profile(ftq_analysis)
        names = {s.name for s in profile.sources}
        assert "timer_interrupt" in names
        assert "run_timer_softirq" in names
        tick = profile.source("timer_interrupt")
        # FTQ node has 1 busy of 2 CPUs: noise tick rate reads ~50/cpu-s.
        assert 30 < tick.rate_per_cpu_sec < 70
        assert profile.total_budget_ns_per_cpu_sec > 0
        # Tags are distinct.
        tags = [s.tag for s in profile.sources]
        assert len(tags) == len(set(tags))

    def test_min_events_filter(self, ftq_analysis):
        everything = fit_noise_profile(ftq_analysis, min_events=1)
        strict = fit_noise_profile(ftq_analysis, min_events=200)
        assert len(strict.sources) < len(everything.sources)
        with pytest.raises(ValueError):
            fit_noise_profile(ftq_analysis, min_events=0)

    def test_describe(self, ftq_analysis):
        text = fit_noise_profile(ftq_analysis).describe()
        assert "timer_interrupt" in text and "total" in text


class TestReplay:
    def test_clone_preserves_noise_budget(self, ftq_analysis):
        profile = fit_noise_profile(ftq_analysis)
        # Replay on a clean single-CPU node with a pure spinner.
        node = ComputeNode(NodeConfig(ncpus=1, seed=91))
        tracer = Tracer(node, record_overhead_ns=0)
        tracer.attach()
        node.spawn_rank("victim", 0, SpinProgram())
        injectors = profile.replay_on(node, cpus=[0])
        node.run(2 * SEC)
        replayed = NoiseAnalysis(
            tracer.finish(), meta=TraceMeta.from_node(node)
        )
        injected = replayed.stats("injected_noise")
        # Injected budget per cpu-second ~ the fitted profile's total...
        # (plus the clean node's own tick noise, excluded here).
        measured_budget = injected.total / (replayed.span_ns / SEC)
        assert measured_budget == pytest.approx(
            profile.total_budget_ns_per_cpu_sec, rel=0.35
        )
        assert all(inj.injected_count > 0 for inj in injectors)

    def test_sources_attributable_by_tag(self, ftq_analysis):
        profile = fit_noise_profile(ftq_analysis, min_events=20)
        node = ComputeNode(NodeConfig(ncpus=1, seed=92))
        tracer = Tracer(node, record_overhead_ns=0)
        tracer.attach()
        node.spawn_rank("victim", 0, SpinProgram())
        profile.replay_on(node, cpus=[0])
        node.run(1 * SEC)
        replayed = NoiseAnalysis(
            tracer.finish(), meta=TraceMeta.from_node(node)
        )
        injected = replayed.select(event="injected_noise")
        tags = {a.arg for a in injected}
        assert tags >= {s.tag for s in profile.sources if s.rate_per_cpu_sec > 5}


class TestPersistence:
    def test_save_load_roundtrip(self, ftq_analysis, tmp_path):
        profile = fit_noise_profile(ftq_analysis)
        path = str(tmp_path / "profile.npz")
        profile.save(path)
        back = NoiseProfile.load(path)
        assert len(back.sources) == len(profile.sources)
        assert back.total_budget_ns_per_cpu_sec == pytest.approx(
            profile.total_budget_ns_per_cpu_sec
        )
        for a, b in zip(profile.sources, back.sources):
            assert a.name == b.name
            assert np.array_equal(a.durations_ns, b.durations_ns)
