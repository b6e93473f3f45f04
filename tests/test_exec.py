"""Tests for the run-execution layer (repro.exec).

Covers: RunSpec identity/serialization, the on-disk result store
(hit/miss, version invalidation, corruption recovery), plan execution's
ordering/dedup/store behaviour, and the determinism contract — pooled
and serial execution produce bit-identical traces.
"""

import os

import pytest

from repro.core import analysis as core_analysis
from repro.core.analysis import NoiseAnalysis
from repro.core.sweep import SeedSweep
from repro.exec import (
    LocalPoolBackend,
    RunSpec,
    SerialBackend,
    ShardedStore,
    SweepPlan,
    register_workload,
    resolve_factory,
)
from repro.util.units import MSEC
from repro.workloads import FTQWorkload, SequoiaWorkload


SHORT = 80 * MSEC


def spec(seed=0, workload="FTQ", duration=SHORT, ncpus=2, **kw):
    return RunSpec.make(workload, duration, seed, ncpus, **kw)


class TestRunSpec:
    def test_hashable_and_equal(self):
        assert spec(1) == spec(1)
        assert spec(1) != spec(2)
        assert len({spec(0), spec(0), spec(1)}) == 2

    def test_kwargs_order_is_canonical(self):
        a = RunSpec.make("FTQ", SHORT, 0, 2, cpu=0, eventd_rate=2.0)
        b = RunSpec.make("FTQ", SHORT, 0, 2, eventd_rate=2.0, cpu=0)
        assert a == b
        assert a.cache_token() == b.cache_token()

    def test_dict_roundtrip(self):
        s = RunSpec.make("AMG", SHORT, 3, 4, nominal_ns=SHORT)
        assert RunSpec.from_dict(s.to_dict()) == s

    def test_cache_token_depends_on_fields_and_version(self):
        base = spec(0)
        assert base.cache_token() != spec(1).cache_token()
        assert base.cache_token() != base.cache_token(version="other")
        assert base.cache_token() == spec(0).cache_token()

    def test_non_scalar_kwargs_rejected(self):
        with pytest.raises(TypeError):
            RunSpec.make("FTQ", SHORT, 0, 2, bad=[1, 2])

    def test_build_workload_builtins(self):
        assert isinstance(spec().build_workload(), FTQWorkload)
        amg = spec(workload="AMG").build_workload()
        assert isinstance(amg, SequoiaWorkload)
        # Sequoia phase plans default to the simulated duration.
        assert amg.nominal_ns == SHORT

    def test_unknown_workload_raises(self):
        with pytest.raises(ValueError):
            resolve_factory("NOSUCH")

    def test_dotted_path_resolution(self):
        assert resolve_factory("repro.workloads.ftq:FTQWorkload") is FTQWorkload

    def test_register_workload(self):
        register_workload("my-ftq", FTQWorkload)
        try:
            assert resolve_factory("MY-FTQ") is FTQWorkload
        finally:
            from repro.exec import spec as spec_mod

            spec_mod._REGISTRY.pop("MY-FTQ", None)


class TestResultStore:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ShardedStore(str(tmp_path))
        s = spec(0)
        assert cache.get(s) is None
        trace, meta = s.execute()
        cache.put(s, trace, meta)
        assert cache.contains(s)
        hit = cache.get(s)
        assert hit is not None
        assert hit[0].to_bytes() == trace.to_bytes()
        assert hit[1].to_json() == meta.to_json()
        assert cache.hits == 1 and cache.misses == 1

    def test_version_change_invalidates(self, tmp_path):
        s = spec(0)
        old = ShardedStore(str(tmp_path), version="1.0.0")
        trace, meta = s.execute()
        old.put(s, trace, meta)
        assert old.get(s) is not None
        new = ShardedStore(str(tmp_path), version="2.0.0")
        assert new.get(s) is None  # different token -> re-simulate

    def test_corrupt_entry_is_a_miss_and_evicted(self, tmp_path):
        cache = ShardedStore(str(tmp_path))
        s = spec(0)
        trace, meta = s.execute()
        cache.put(s, trace, meta)
        trace_path = cache._paths(s)[0]
        with open(trace_path, "wb") as fp:
            fp.write(b"garbage")
        assert cache.get(s) is None
        assert not cache.contains(s)

    def test_clear(self, tmp_path):
        cache = ShardedStore(str(tmp_path))
        for seed in (0, 1):
            s = spec(seed)
            cache.put(s, *s.execute())
        assert cache.clear() == 2
        assert cache.get(spec(0)) is None


def execute(specs, backend=None, store=None, progress=None):
    """Run ``specs`` as an unjournaled plan; returns (plan, results)."""
    plan = SweepPlan(specs)
    results = plan.execute(backend or SerialBackend(), store,
                           progress=progress)
    return plan, results


class TestPlanExecution:
    def test_results_in_input_order(self):
        _, results = execute([spec(s) for s in (3, 1, 2)])
        assert [r.spec.seed for r in results] == [3, 1, 2]

    def test_duplicate_specs_simulated_once(self, tmp_path):
        store = ShardedStore(str(tmp_path))
        plan, results = execute([spec(7), spec(7)], store=store)
        assert [r.spec for r in results] == [spec(7)]
        assert plan.last_stats["simulated"] == 1
        assert plan.last_stats["duplicates"] == 1
        sweep = SeedSweep.run("FTQ", SHORT, [7, 7], ncpus=2, cache=store)
        assert sweep.exec_stats["simulated"] == 0
        assert sweep.exec_stats["duplicates"] == 1
        assert sweep.analyses[0] is sweep.analyses[1]
        assert (sweep.analyses[0].records.tobytes()
                == results[0].analysis().records.tobytes())

    def test_cache_warm_second_run_skips_simulation(self, tmp_path):
        cache = ShardedStore(str(tmp_path))
        specs = [spec(s) for s in range(3)]
        _, first = execute(specs, store=cache)
        assert all(not r.cached for r in first)
        second_plan, results = execute(specs, store=cache)
        assert all(r.cached for r in results)
        assert second_plan.last_stats["simulated"] == 0

    def test_progress_callback_counts_every_run(self):
        seen = []
        execute(
            [spec(s) for s in range(3)],
            progress=lambda done, total, sp, cached, el:
                seen.append((done, total, sp.seed, cached)),
        )
        assert [s[0] for s in seen] == [1, 2, 3]
        assert all(total == 3 and not cached for _, total, _, cached in seen)

    def test_parallel_results_bit_identical_to_serial(self):
        specs = [spec(s) for s in range(4)]
        _, serial = execute(specs)
        plan, parallel = execute(specs, backend=LocalPoolBackend(2))
        assert plan.last_stats["used_processes"]
        assert plan.last_stats["workers"] == 2
        for a, b in zip(serial, parallel):
            assert a.trace.to_bytes() == b.trace.to_bytes()
            assert a.meta.to_json() == b.meta.to_json()

    def test_analysis_helper(self):
        _, (result,) = execute([spec(0)])
        analysis = result.analysis()
        assert analysis.span_ns > 0


class TestSeedSweepIntegration:
    SEEDS = list(range(8))

    def test_parallel_sweep_identical_to_serial(self):
        serial = SeedSweep.run("FTQ", SHORT, self.SEEDS, ncpus=2)
        parallel = SeedSweep.run("FTQ", SHORT, self.SEEDS, ncpus=2,
                                 backend=LocalPoolBackend(2))
        s_nf = serial.noise_fraction().values
        p_nf = parallel.noise_fraction().values
        assert list(s_nf) == list(p_nf)
        for a, b in zip(serial.analyses, parallel.analyses):
            assert a.span_ns == b.span_ns
            assert len(a.records) == len(b.records)
            assert a.total_noise_ns() == b.total_noise_ns()

    def test_sweep_uses_cache(self, tmp_path):
        cache = ShardedStore(str(tmp_path))
        SeedSweep.run("FTQ", SHORT, [0, 1], ncpus=2, cache=cache)
        assert cache.misses == 2
        SeedSweep.run("FTQ", SHORT, [0, 1], ncpus=2, cache=cache)
        assert cache.hits == 2


class TestSweepFanIn:
    """A sweep analyses each unique spec once and fans that one analysis
    back onto every position that asked for it."""

    SEEDS = [3, 1, 3, 2, 1, 3]

    @pytest.fixture(scope="class")
    def reference(self):
        out = {}
        for seed in set(self.SEEDS):
            trace, meta = spec(seed).execute()
            out[seed] = NoiseAnalysis(trace, meta)
        return out

    @pytest.mark.parametrize("planned", [False, True],
                             ids=["unplanned", "planned"])
    @pytest.mark.parametrize("make_backend",
                             [SerialBackend, lambda: LocalPoolBackend(2)],
                             ids=["serial", "pool2"])
    def test_one_analysis_per_unique_spec(self, tmp_path, monkeypatch,
                                          reference, planned, make_backend):
        built = []

        class CountingAnalysis(NoiseAnalysis):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(core_analysis, "NoiseAnalysis", CountingAnalysis)
        plan = None
        if planned:
            plan = SweepPlan([spec(s) for s in self.SEEDS], shards=2,
                             plan_dir=str(tmp_path))
            plan.save()
        sweep = SeedSweep.run("FTQ", SHORT, self.SEEDS, ncpus=2,
                              backend=make_backend(), plan=plan)
        assert len(built) == len(set(self.SEEDS))
        assert len(sweep.analyses) == len(self.SEEDS)
        first = {}
        for seed, analysis in zip(self.SEEDS, sweep.analyses):
            assert first.setdefault(seed, analysis) is analysis
            ref = reference[seed]
            assert analysis.records.tobytes() == ref.records.tobytes()
            assert analysis.total_noise_ns() == ref.total_noise_ns()
        totals = sweep.metric("total", lambda a: a.total_noise_ns())
        assert list(totals.values) == [
            float(reference[s].total_noise_ns()) for s in self.SEEDS
        ]


@pytest.mark.slow
@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="speedup needs >= 4 cores")
def test_parallel_speedup_on_multicore():
    """>= 2x wall-clock speedup fanning 8 runs over >= 4 cores."""
    import time

    specs = [RunSpec.make("AMG", 1000 * MSEC, s, 4) for s in range(8)]
    t0 = time.perf_counter()
    execute(specs)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    plan, _ = execute(specs, backend=LocalPoolBackend(4))
    parallel_s = time.perf_counter() - t0
    assert plan.last_stats["used_processes"]
    assert serial_s / parallel_s >= 2.0
