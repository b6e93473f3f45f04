"""Tests for sweep orchestration: planner, journal, backends, resume.

The contract under test is the one the paper's scale demands: a campaign
of thousands of runs must be interruptible at any instant (SIGINT, worker
death) and resumable without rework — journal consistency, >90% cache
reuse on re-run, and results bit-identical to an uninterrupted serial
baseline.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.sweep import SeedSweep
from repro.exec import (
    BackendFailure,
    FlakyBackend,
    Journal,
    LocalPoolBackend,
    RunSpec,
    SerialBackend,
    ShardedStore,
    SweepPlan,
    dispatch_with_retry,
)
from repro.util.units import MSEC

SHORT = 60 * MSEC


def spec(seed=0, workload="FTQ", duration=SHORT, ncpus=2, **kw):
    return RunSpec.make(workload, duration, seed, ncpus, **kw)


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------

class TestJournal:
    def test_replay_returns_last_state(self, tmp_path):
        journal = Journal(str(tmp_path / "j.jsonl"))
        journal.record("aa", "running", shard=0)
        journal.record("bb", "running", shard=1)
        journal.record("aa", "done", cached=False)
        journal.close()
        assert journal.replay() == {"aa": "done", "bb": "running"}
        counts = journal.counts()
        assert counts["done"] == 1 and counts["running"] == 1

    def test_unknown_state_rejected(self, tmp_path):
        journal = Journal(str(tmp_path / "j.jsonl"))
        with pytest.raises(ValueError):
            journal.record("aa", "exploded")

    def test_torn_final_line_is_ignored(self, tmp_path):
        """A crash mid-append loses one transition, not the journal."""
        path = tmp_path / "j.jsonl"
        journal = Journal(str(path))
        journal.record("aa", "running")
        journal.record("aa", "done")
        journal.close()
        with open(path, "a", encoding="utf-8") as fp:
            fp.write('{"token": "bb", "state": "do')  # torn write
        assert journal.replay() == {"aa": "done"}

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with open(path, "w", encoding="utf-8") as fp:
            fp.write('not json\n{"token": "aa", "state": "done"}\n')
        with pytest.raises(ValueError):
            Journal(str(path)).replay()

    def test_missing_file_is_empty(self, tmp_path):
        journal = Journal(str(tmp_path / "absent.jsonl"))
        assert journal.replay() == {}
        assert "empty" in journal.describe()


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------

class TestSweepPlan:
    def test_dedup_preserves_first_occurrence_order(self):
        plan = SweepPlan([spec(3), spec(1), spec(3), spec(2)])
        assert [s.seed for s in plan.specs] == [3, 1, 2]
        assert plan.duplicates == 1

    def test_shard_assignment_is_content_defined(self):
        """A spec's shard depends only on its own token, never on the
        rest of the submission — stable across runs and hosts."""
        full = SweepPlan([spec(s) for s in range(20)], shards=4)
        subset = SweepPlan([spec(s) for s in range(0, 20, 3)], shards=4)
        for token in subset.tokens:
            assert subset.shard_index(token) == full.shard_index(token)

    def test_shards_are_token_ordered_and_disjoint(self):
        plan = SweepPlan([spec(s) for s in range(32)], shards=4)
        seen = set()
        for shard in plan.shards:
            assert list(shard.tokens) == sorted(shard.tokens)
            assert not seen & set(shard.tokens)
            seen.update(shard.tokens)
        assert seen == set(plan.tokens)

    def test_save_load_roundtrip(self, tmp_path):
        plan = SweepPlan([spec(s) for s in range(5)], shards=3,
                         plan_dir=str(tmp_path))
        plan.save()
        loaded = SweepPlan.load(str(tmp_path))
        assert loaded.matches([spec(s) for s in range(5)])
        assert loaded.nshards == 3
        assert loaded.tokens == plan.tokens
        assert SweepPlan.exists(str(tmp_path))

    def test_matches_rejects_different_specs(self, tmp_path):
        plan = SweepPlan([spec(0), spec(1)])
        assert plan.matches([spec(1), spec(0), spec(1)])  # set-equal
        assert not plan.matches([spec(0)])
        assert not plan.matches([spec(0), spec(2)])

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            SweepPlan([])

    def test_execute_fans_in_spec_order(self, tmp_path):
        seeds = [2, 0, 1, 0]
        plan = SweepPlan([spec(s) for s in seeds], shards=4,
                         plan_dir=str(tmp_path))
        plan.save()
        store = ShardedStore(str(tmp_path / "store"))
        sweep = SeedSweep.run("FTQ", SHORT, seeds, ncpus=2, cache=store,
                              backend=SerialBackend(), plan=plan)
        # Each unique spec simulated exactly once across the campaign.
        assert sweep.exec_stats["simulated"] == 3
        assert sweep.exec_stats["duplicates"] == 1
        assert plan.verify_journal() == []
        # The plan yields unique results in first-occurrence order; the
        # sweep fans one analysis per unique spec back onto every
        # requesting position.
        results = plan.execute(SerialBackend(), store)
        assert [r.spec.seed for r in results] == [2, 0, 1]
        assert len(sweep.analyses) == len(seeds)
        assert sweep.analyses[1] is sweep.analyses[3]
        for analysis, k in zip(sweep.analyses, (0, 1, 2, 1)):
            assert (analysis.records.tobytes()
                    == results[k].analysis().records.tobytes())

    def test_journal_records_done_with_shard_provenance(self, tmp_path):
        plan = SweepPlan([spec(s) for s in range(4)], shards=2,
                         plan_dir=str(tmp_path))
        plan.save()
        plan.execute(SerialBackend())
        states = plan.journal().replay()
        assert set(states) == set(plan.tokens)
        assert set(states.values()) == {"done"}

    @staticmethod
    def _journal_lines(plan):
        with open(plan.journal().path, encoding="utf-8") as fp:
            return [json.loads(line) for line in fp]

    def test_rerun_of_a_done_plan_adds_no_lines(self, tmp_path):
        """The journal holds one line per state transition: a re-run of
        a finished plan, served from the store, changes no state and
        writes nothing."""
        plan = SweepPlan([spec(s) for s in range(3)], shards=2,
                         plan_dir=str(tmp_path))
        plan.save()
        store = ShardedStore(str(tmp_path / "store"))
        plan.execute(SerialBackend(), store)
        lines = self._journal_lines(plan)
        assert len(lines) == 6  # running + done per spec
        for _ in range(2):
            results = plan.execute(SerialBackend(), store)
            assert all(r.cached for r in results)
            assert self._journal_lines(plan) == lines

    def test_evicted_done_spec_gets_one_done_line(self, tmp_path):
        """A done spec whose store entry was evicted is simulated again
        and journaled once more, as not cached."""
        plan = SweepPlan([spec(s) for s in range(3)], shards=1,
                         plan_dir=str(tmp_path))
        plan.save()
        store = ShardedStore(str(tmp_path / "store"))
        plan.execute(SerialBackend(), store)
        before = self._journal_lines(plan)
        evicted = plan.tokens[1]
        store.evict_token(evicted)
        plan.execute(SerialBackend(), store)
        added = self._journal_lines(plan)[len(before):]
        assert [(e["token"], e["state"], e["cached"]) for e in added] == [
            (evicted, "done", False)
        ]
        assert plan.verify_journal() == []

    def test_failed_spec_journaled_and_raises(self, tmp_path):
        plan = SweepPlan([spec(0, workload="FTQ"),
                          spec(0, workload="NOSUCH")],
                         shards=1, plan_dir=str(tmp_path))
        plan.save()
        with pytest.raises(ValueError):
            plan.execute(SerialBackend())
        counts = plan.journal().counts()
        assert counts["failed"] >= 1
        issues = plan.verify_journal()
        assert not any("running" in issue for issue in issues)


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------

class TestBackends:
    def test_serial_backend_yields_all(self):
        out = list(SerialBackend().execute([spec(0), spec(1)]))
        assert [t[0].seed for t in out] == [0, 1]
        assert all(t[3] >= 0 for t in out)

    def test_flaky_backend_dies_and_reports_remaining(self):
        flaky = FlakyBackend(SerialBackend(), failures=1, survive=1)
        specs = [spec(s) for s in range(3)]
        got = []
        with pytest.raises(BackendFailure) as exc_info:
            for item in flaky.execute(specs):
                got.append(item[0])
        assert len(got) == 1
        assert set(exc_info.value.remaining) == set(specs) - set(got)
        # Second call: the failure budget is spent, everything completes.
        assert len(list(flaky.execute(specs))) == 3

    def test_dispatch_with_retry_recovers_from_worker_death(self):
        flaky = FlakyBackend(SerialBackend(), failures=2, survive=1)
        specs = [spec(s) for s in range(5)]
        out = list(dispatch_with_retry(flaky, specs, retries=3,
                                       backoff_s=0.001))
        assert sorted(t[0].seed for t in out) == [0, 1, 2, 3, 4]
        assert flaky.injected == 2

    def test_dispatch_retry_exhaustion_falls_back_to_serial(self):
        flaky = FlakyBackend(SerialBackend(), failures=99, survive=0)
        specs = [spec(s) for s in range(3)]
        out = list(dispatch_with_retry(flaky, specs, retries=1,
                                       backoff_s=0.001))
        assert sorted(t[0].seed for t in out) == [0, 1, 2]

    def test_runner_with_flaky_backend_bit_identical(self, tmp_path):
        specs = [spec(s) for s in range(4)]
        baseline = SweepPlan(specs).execute(SerialBackend())
        flaky = FlakyBackend(SerialBackend(), failures=2, survive=1)
        recovered = SweepPlan(specs).execute(flaky)
        assert flaky.injected == 2
        for a, b in zip(baseline, recovered):
            assert a.trace.to_bytes() == b.trace.to_bytes()
            assert a.meta.to_json() == b.meta.to_json()

    def test_local_pool_backend_describe(self):
        assert "workers" in LocalPoolBackend(4).describe()
        with pytest.raises(ValueError):
            LocalPoolBackend(0)


# ----------------------------------------------------------------------
# Interrupt + resume
# ----------------------------------------------------------------------

def _serial_baseline(seeds):
    return SeedSweep.run("FTQ", SHORT, seeds, ncpus=2)


class TestInterruptResume:
    SEEDS = list(range(12))

    def _planned_sweep(self, tmp_path, progress=None, backend=None):
        cache = ShardedStore(str(tmp_path / "store"))
        specs = [spec(s) for s in self.SEEDS]
        plan_dir = str(tmp_path / "plan")
        if SweepPlan.exists(plan_dir):
            plan = SweepPlan.load(plan_dir)
        else:
            plan = SweepPlan(specs, shards=4, plan_dir=plan_dir)
            plan.save()
        return SeedSweep.run(
            "FTQ", SHORT, self.SEEDS, ncpus=2,
            cache=cache, plan=plan, progress=progress, backend=backend,
        ), plan, cache

    def test_interrupt_then_resume_bit_identical(self, tmp_path):
        """Kill the sweep after 5 runs; resume must finish the campaign
        with the interrupted work reused and results bit-identical to an
        uninterrupted serial baseline."""

        def interrupt_after_5(done, total, sp, cached, elapsed):
            if done >= 5:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            self._planned_sweep(tmp_path, progress=interrupt_after_5)
        plan = SweepPlan.load(str(tmp_path / "plan"))
        counts = plan.journal().counts()
        assert counts["done"] == 5
        assert counts["failed"] == 0

        resumed, plan, cache = self._planned_sweep(tmp_path)
        assert cache.hits == 5  # everything the interrupted run finished
        counts = plan.journal().counts()
        assert counts["done"] == len(self.SEEDS)
        assert plan.verify_journal() == []

        baseline = _serial_baseline(self.SEEDS)
        assert list(resumed.noise_fraction().values) == \
            list(baseline.noise_fraction().values)
        for a, b in zip(resumed.analyses, baseline.analyses):
            assert a.total_noise_ns() == b.total_noise_ns()

        # A full re-run after completion: >90% cache reuse (here: 100%).
        rerun, plan, cache = self._planned_sweep(tmp_path)
        stats = rerun.exec_stats
        assert stats["cached"] / stats["runs"] > 0.9
        assert list(rerun.noise_fraction().values) == \
            list(baseline.noise_fraction().values)

    def test_worker_death_mid_campaign_self_heals(self, tmp_path):
        """FlakyBackend kills a 'worker' twice mid-campaign; the retry
        driver absorbs it — same results, journal fully done."""
        flaky = FlakyBackend(SerialBackend(), failures=2, survive=2)
        swept, plan, _ = self._planned_sweep(tmp_path, backend=flaky)
        assert flaky.injected == 2
        assert plan.journal().counts()["done"] == len(self.SEEDS)
        baseline = _serial_baseline(self.SEEDS)
        assert list(swept.noise_fraction().values) == \
            list(baseline.noise_fraction().values)


# ----------------------------------------------------------------------
# One execution path: planned and unplanned sweeps report alike
# ----------------------------------------------------------------------

#: exec_stats keys that depend on timing or on how the plan was sharded
#: and dispatched, not on what the sweep did.
_HOW_KEYS = ("wall_s", "busy_s", "shards", "backend")


def _what(stats):
    return {k: v for k, v in stats.items() if k not in _HOW_KEYS}


class TestSweepReporting:
    SEEDS = list(range(12))

    def _pool_sweep_last_shard_cached(self, tmp_path):
        """A 3-shard planned pool sweep whose last non-empty shard was
        already simulated by an earlier sweep on the same store."""
        store = ShardedStore(str(tmp_path / "store"))
        plan = SweepPlan([spec(s) for s in self.SEEDS], shards=3,
                         plan_dir=str(tmp_path / "plan"))
        plan.save()
        last = [shard for shard in plan.shards if shard.specs][-1]
        prestored = [s.seed for s in last.specs]
        SeedSweep.run("FTQ", SHORT, prestored, ncpus=2, cache=store)
        sweep = SeedSweep.run("FTQ", SHORT, self.SEEDS, ncpus=2,
                              backend=LocalPoolBackend(2), cache=store,
                              plan=plan)
        return sweep, len(prestored)

    def test_pool_sweep_with_cached_last_shard_reports_workers(
            self, tmp_path):
        sweep, cached = self._pool_sweep_last_shard_cached(tmp_path)
        assert f"{cached} cached" in sweep.exec_summary
        assert "(2 workers)" in sweep.exec_summary
        stats = sweep.exec_stats
        assert stats["simulated"] == len(self.SEEDS) - cached
        assert stats["used_processes"] and stats["workers"] == 2

    def test_cache_counts_are_per_sweep(self, tmp_path):
        sweep, cached = self._pool_sweep_last_shard_cached(tmp_path)
        missed = len(self.SEEDS) - cached
        assert sweep.exec_stats["cache_hits"] == cached
        assert sweep.exec_stats["cache_misses"] == missed
        assert f"cache {cached} hits, {missed} misses" in sweep.exec_summary

    def test_unplanned_sweep_writes_no_plan_files(self, tmp_path):
        store = ShardedStore(str(tmp_path / "store"))
        SeedSweep.run("FTQ", SHORT, [0, 1], ncpus=2, cache=store)
        assert sorted(os.listdir(tmp_path)) == ["store"]


class TestExecutionDifferential:
    """One duplicated seed list run unplanned, planned (journaled, four
    shards) and planned over a dying backend: same bytes, same stats,
    and one store lookup per unique spec."""

    SEEDS = [3, 1, 3, 2, 1]
    UNIQUE = 3

    def _three_ways(self, tmp_path, flaky):
        out = {}
        for way in ("unplanned", "planned", "flaky"):
            root = tmp_path / way
            store = ShardedStore(str(root / "store"))
            plan = None
            if way != "unplanned":
                plan_dir = str(root / "plan")
                if SweepPlan.exists(plan_dir):
                    plan = SweepPlan.load(plan_dir)
                else:
                    plan = SweepPlan([spec(s) for s in self.SEEDS],
                                     shards=4, plan_dir=plan_dir)
                    plan.save()
            lookups0 = store.hits + store.misses
            sweep = SeedSweep.run(
                "FTQ", SHORT, self.SEEDS, ncpus=2, cache=store, plan=plan,
                backend=flaky if way == "flaky" else None,
            )
            out[way] = (sweep, store, store.hits + store.misses - lookups0)
        return out

    def test_three_paths_agree(self, tmp_path):
        flaky = FlakyBackend(SerialBackend(), failures=2)
        cold = self._three_ways(tmp_path, flaky)
        assert flaky.injected == 2
        warm = self._three_ways(tmp_path, flaky)

        ref_sweep, ref_store, _ = cold["unplanned"]
        for passes in (cold, warm):
            for sweep, store, lookups in passes.values():
                assert lookups == self.UNIQUE
                assert set(sweep.exec_stats) == set(ref_sweep.exec_stats)
                assert len(sweep.analyses) == len(self.SEEDS)
                for a, b in zip(sweep.analyses, ref_sweep.analyses):
                    assert a.records.tobytes() == b.records.tobytes()
                    assert a.total_noise_ns() == b.total_noise_ns()
                for seed in set(self.SEEDS):
                    (trace, meta), (ref_trace, ref_meta) = (
                        store.get(spec(seed)), ref_store.get(spec(seed))
                    )
                    assert trace.to_bytes() == ref_trace.to_bytes()
                    assert meta.to_json() == ref_meta.to_json()
            stats = [_what(p[0].exec_stats) for p in passes.values()]
            assert stats[0] == stats[1] == stats[2]
        assert _what(cold["planned"][0].exec_stats) == {
            "runs": 3, "cached": 0, "simulated": 3, "duplicates": 2,
            "workers": 1, "used_processes": False, "failures": 0,
            "cache_hits": 0, "cache_misses": 3,
        }
        assert warm["planned"][0].exec_stats["cached"] == self.UNIQUE


# ----------------------------------------------------------------------
# CLI plan/resume surface
# ----------------------------------------------------------------------

class TestSweepPlanCLI:
    ARGS = ["sweep", "FTQ", "--duration", "60ms", "--seeds", "0:4",
            "--ncpus", "2", "--serial"]

    def _argv(self, tmp_path, *extra):
        return self.ARGS + [
            "--cache-dir", str(tmp_path / "cache"),
            "--plan", str(tmp_path / "plan"),
        ] + list(extra)

    def test_plan_resume_and_summary_json(self, tmp_path, capsys):
        from repro.cli import main

        summary_path = str(tmp_path / "summary.json")
        assert main(self._argv(tmp_path, "--summary-json",
                               summary_path)) == 0
        capsys.readouterr()
        with open(summary_path) as fp:
            first = json.load(fp)
        assert first["runs"] == 4 and first["simulated"] == 4
        assert first["failures"] == 0
        assert first["plan"]["journal"]["done"] == 4
        assert first["plan"]["issues"] == []
        assert first["wall_s"] > 0

        # Without --resume a planned sweep with progress refuses to run.
        assert main(self._argv(tmp_path)) == 2
        capsys.readouterr()

        assert main(self._argv(tmp_path, "--resume", "--summary-json",
                               summary_path)) == 0
        out, err = capsys.readouterr()
        assert err.count(": cache") == 4
        with open(summary_path) as fp:
            second = json.load(fp)
        assert second["cached"] == 4 and second["simulated"] == 0
        assert second["cache_hits"] == 4

    def test_resume_without_plan_dir_rejected(self, tmp_path, capsys):
        from repro.cli import main

        assert main(self.ARGS + ["--resume", "--cache-dir",
                                 str(tmp_path / "c")]) == 2
        assert main(self._argv(tmp_path, "--resume")) == 2
        err = capsys.readouterr().err
        assert "no plan found" in err

    def test_plan_requires_store(self, tmp_path, capsys):
        from repro.cli import main

        assert main(self.ARGS + ["--no-cache", "--plan",
                                 str(tmp_path / "plan")]) == 2
        assert "drop --no-cache" in capsys.readouterr().err

    def test_mismatched_plan_rejected(self, tmp_path, capsys):
        from repro.cli import main

        assert main(self._argv(tmp_path)) == 0
        capsys.readouterr()
        argv = [a if a != "0:4" else "0:6" for a in
                self._argv(tmp_path, "--resume")]
        assert main(argv) == 2
        assert "different spec set" in capsys.readouterr().err

    def test_max_cache_bytes_budget_applied(self, tmp_path, capsys):
        from repro.cli import main

        argv = self.ARGS + ["--cache-dir", str(tmp_path / "cache"),
                            "--max-cache-bytes", "1"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "budget 1 bytes" in err
        # Budget of one byte: every put evicts the previous entry.
        store = ShardedStore(str(tmp_path / "cache"))
        assert len(store.entries()) == 1


# ----------------------------------------------------------------------
# SIGINT smoke: a real process killed mid-campaign, resumed via the CLI.
# Scaled up in CI by LTTNG_NOISE_SMOKE_SPECS (see .github/workflows).
# ----------------------------------------------------------------------

@pytest.mark.smoke
def test_sigint_interrupt_resume_smoke(tmp_path):
    n_specs = int(os.environ.get("LTTNG_NOISE_SMOKE_SPECS", "40"))
    duration = os.environ.get("LTTNG_NOISE_SMOKE_DURATION", "200ms")
    plan_dir = tmp_path / "plan"
    journal_path = plan_dir / "journal.jsonl"
    summary_path = tmp_path / "summary.json"
    argv = [
        sys.executable, "-m", "repro.cli", "sweep", "AMG",
        "--duration", duration, "--seeds", f"0:{n_specs}",
        "--ncpus", "2", "--serial",
        "--cache-dir", str(tmp_path / "cache"),
        "--max-cache-bytes", "2000000000",
        "--plan", str(plan_dir),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    proc = subprocess.Popen(argv, cwd=repo_root, env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        # Interrupt once a few runs are journaled done.
        deadline = time.time() + 120
        while time.time() < deadline:
            if journal_path.exists() and Journal(
                    str(journal_path)).counts()["done"] >= 3:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.02)
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:  # pragma: no cover - hung child
            proc.kill()
            proc.wait()

    done_before = Journal(str(journal_path)).counts()["done"]
    assert 0 < done_before, "child exited before completing any run"

    # Resume in-process and gate on journal consistency + summary shape.
    from repro.cli import main

    resume_argv = ["sweep", "AMG", "--duration", duration,
                   "--seeds", f"0:{n_specs}", "--ncpus", "2", "--serial",
                   "--cache-dir", str(tmp_path / "cache"),
                   "--max-cache-bytes", "2000000000",
                   "--plan", str(plan_dir), "--resume",
                   "--summary-json", str(summary_path)]
    assert main(resume_argv) == 0
    with open(summary_path) as fp:
        resumed = json.load(fp)
    assert resumed["runs"] == n_specs
    assert resumed["cached"] >= done_before
    assert resumed["failures"] == 0
    assert resumed["plan"]["issues"] == []
    assert resumed["plan"]["journal"]["done"] == n_specs

    # Final re-run: the campaign is fully reusable (>90% gate).
    assert main(resume_argv) == 0
    with open(summary_path) as fp:
        rerun = json.load(fp)
    assert rerun["cached"] / rerun["runs"] > 0.9
