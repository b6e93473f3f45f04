"""CLI surface of the ``lttng-noise obs`` family.

Covers the Prometheus text exposition (naming, family lines, cumulative
buckets), capture re-export to chrome/jsonl, the ``obs diff`` regression
gate (baseline gates, injected slowdown, optional metrics, ungated
threshold), and the ``obs tail`` dashboard against a sweep that was
interrupted mid-flight and resumed — the PR's acceptance scenario.
"""

import json
import os

import pytest

from repro import obs
from repro.cli import main

BASELINE = os.path.join(
    os.path.dirname(__file__), os.pardir,
    "benchmarks", "baselines", "BENCH_8.json",
)


@pytest.fixture(autouse=True)
def _clean_registry():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _capture(path):
    """A populated --obs JSON-lines capture on disk."""
    obs.enable()
    with obs.span("simulate", workload="FTQ"):
        pass
    obs.counter("cache.hit").inc(3)
    obs.gauge("backend.queue_depth").set(2)
    obs.histogram("lat", buckets=(1.0, 10.0)).observe(0.5)
    obs.histogram("lat", buckets=(1.0, 10.0)).observe(4.5)
    obs.write_jsonl(path, obs.snapshot())
    obs.disable()
    obs.reset()
    return path


# ----------------------------------------------------------------------
# obs export
# ----------------------------------------------------------------------

class TestObsExport:
    def test_prometheus_exposition_structure(self, tmp_path, capsys):
        path = _capture(str(tmp_path / "cap.jsonl"))
        assert main(["obs", "export", path]) == 0  # prom is the default
        text = capsys.readouterr().out
        lines = text.splitlines()

        assert "# TYPE lttng_noise_cache_hit_total counter" in lines
        assert 'lttng_noise_cache_hit_total 3' in lines
        assert "# TYPE lttng_noise_backend_queue_depth gauge" in lines
        assert "# TYPE lttng_noise_lat histogram" in lines
        # Buckets are cumulative and end at +Inf == _count.
        assert 'lttng_noise_lat_bucket{le="1"} 1' in lines
        assert 'lttng_noise_lat_bucket{le="10"} 2' in lines
        assert 'lttng_noise_lat_bucket{le="+Inf"} 2' in lines
        assert "lttng_noise_lat_count 2" in lines
        assert "lttng_noise_lat_sum 5" in lines
        # Span rollups ride along as labeled gauges.
        assert any(line.startswith("lttng_noise_span_count{")
                   and 'name="simulate"' in line for line in lines)
        # Every sample line carries the exporter prefix.
        for line in lines:
            if line and not line.startswith("#"):
                assert line.startswith("lttng_noise_"), line

    def test_prom_to_file_and_other_formats(self, tmp_path, capsys):
        path = _capture(str(tmp_path / "cap.jsonl"))
        prom = str(tmp_path / "m.prom")
        assert main(["obs", "export", path, "-o", prom]) == 0
        assert "# TYPE" in open(prom).read()

        chrome = str(tmp_path / "t.json")
        assert main(["obs", "export", path, "--format", "chrome",
                     "-o", chrome]) == 0
        from readers import read_chrome_trace

        events = read_chrome_trace(chrome)
        assert any(e["ph"] == "X" and e["name"] == "simulate"
                   for e in events)

        jsonl = str(tmp_path / "norm.jsonl")
        assert main(["obs", "export", path, "--format", "jsonl",
                     "-o", jsonl]) == 0
        kinds = {json.loads(line)["type"] for line in open(jsonl)}
        assert {"meta", "counter", "span"} <= kinds
        capsys.readouterr()

    def test_chrome_without_output_is_usage_error(self, tmp_path, capsys):
        path = _capture(str(tmp_path / "cap.jsonl"))
        assert main(["obs", "export", path, "--format", "chrome"]) == 2
        capsys.readouterr()

    def test_missing_capture_exits_2(self, capsys):
        assert main(["obs", "export", "/no/such/capture.jsonl"]) == 2
        capsys.readouterr()


# ----------------------------------------------------------------------
# obs diff
# ----------------------------------------------------------------------

def _write_candidate(tmp_path, **overrides):
    """A BENCH_8-shaped trajectory with selected metrics overridden
    (or removed, when the override is None)."""
    with open(BASELINE, encoding="utf-8") as fp:
        metrics = dict(json.load(fp)["metrics"])
    for name, value in overrides.items():
        if value is None:
            metrics.pop(name, None)
        else:
            metrics[name] = value
    path = str(tmp_path / "candidate.json")
    with open(path, "w", encoding="utf-8") as fp:
        json.dump({"bench": "BENCH_8", "schema": 1, "metrics": metrics},
                  fp)
    return path


class TestObsDiff:
    def test_baseline_against_itself_passes(self, capsys):
        assert main(["obs", "diff", BASELINE, BASELINE]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out

    def test_injected_analyze_slowdown_regresses(self, tmp_path, capsys):
        """The acceptance criterion: a >=20% analyze-phase slowdown
        (speedup x0.8, outside the 15% gate) must exit 1."""
        with open(BASELINE, encoding="utf-8") as fp:
            base_speedup = json.load(fp)["metrics"]["analyze_speedup"]
        cand = _write_candidate(
            tmp_path, analyze_speedup=base_speedup * 0.8
        )
        assert main(["obs", "diff", BASELINE, cand]) == 1
        out = capsys.readouterr().out
        assert "! analyze_speedup" in out
        assert "1 regression(s)" in out

    def test_improvement_passes(self, tmp_path, capsys):
        cand = _write_candidate(tmp_path, analyze_speedup=9.0)
        assert main(["obs", "diff", BASELINE, cand]) == 0
        capsys.readouterr()

    def test_missing_optional_metric_is_not_a_regression(
            self, tmp_path, capsys):
        cand = _write_candidate(tmp_path, pool_scaling_4w=None)
        assert main(["obs", "diff", BASELINE, cand]) == 0
        assert "missing (optional)" in capsys.readouterr().out

    def test_missing_required_metric_regresses(self, tmp_path, capsys):
        cand = _write_candidate(tmp_path, plan_rerun_reuse=None)
        assert main(["obs", "diff", BASELINE, cand]) == 1
        capsys.readouterr()

    def test_ungated_lower_is_better_threshold(self, tmp_path, capsys):
        base = str(tmp_path / "base.json")
        cand = str(tmp_path / "cand.json")
        with open(base, "w") as fp:
            json.dump({"busy_s": 100.0}, fp)
        with open(cand, "w") as fp:
            json.dump({"busy_s": 130.0}, fp)
        assert main(["obs", "diff", base, cand]) == 1  # +30% > 20%
        capsys.readouterr()
        assert main(["obs", "diff", base, cand,
                     "--threshold", "0.5"]) == 0
        capsys.readouterr()

    def test_jsonl_captures_diff_on_aggregates(self, tmp_path, capsys):
        base = _capture(str(tmp_path / "base.jsonl"))
        cand = _capture(str(tmp_path / "cand.jsonl"))
        # Span wall-times jitter between two captures; a wide threshold
        # keeps this about the aggregation, not the scheduler.
        assert main(["obs", "diff", base, cand,
                     "--threshold", "10.0"]) == 0
        out = capsys.readouterr().out
        assert "cache.hit" in out
        assert "span.simulate.count" in out

    def test_json_output_is_machine_readable(self, tmp_path, capsys):
        cand = _write_candidate(tmp_path)
        assert main(["obs", "diff", BASELINE, cand, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressed"] is False
        metrics = {row["metric"] for row in payload["rows"]}
        assert "analyze_speedup" in metrics

    def test_unreadable_file_exits_2(self, capsys):
        assert main(["obs", "diff", BASELINE, "/no/such.json"]) == 2
        capsys.readouterr()


# ----------------------------------------------------------------------
# obs tail
# ----------------------------------------------------------------------

class TestObsTail:
    SEEDS = list(range(6))

    def _sweep(self, tmp_path, progress=None):
        from repro.core.sweep import SeedSweep
        from repro.exec import RunSpec, ShardedStore, SweepPlan
        from repro.util.units import MSEC

        cache = ShardedStore(str(tmp_path / "store"))
        plan_dir = str(tmp_path / "plan")
        specs = [RunSpec.make("FTQ", 60 * MSEC, s, 2) for s in self.SEEDS]
        if SweepPlan.exists(plan_dir):
            plan = SweepPlan.load(plan_dir)
        else:
            plan = SweepPlan(specs, shards=2, plan_dir=plan_dir)
            plan.save()
        return SeedSweep.run(
            "FTQ", 60 * MSEC, self.SEEDS, ncpus=2,
            cache=cache, plan=plan, progress=progress,
        )

    def test_tail_interrupted_then_resumed_sweep(self, tmp_path, capsys):
        """The acceptance scenario: a sweep dies mid-flight, `obs tail`
        shows the partial state, the resumed sweep completes, and the
        same dashboard shows the finished campaign."""
        plan_dir = str(tmp_path / "plan")
        samples = os.path.join(plan_dir, "samples")

        def interrupt_after_2(done, total, spec, cached, elapsed):
            if done >= 2:
                raise KeyboardInterrupt

        obs.enable()
        sampler = obs.Sampler(period_s=0.02, spill_dir=samples)
        sampler.start(export_env=True)
        try:
            with pytest.raises(KeyboardInterrupt):
                self._sweep(tmp_path, progress=interrupt_after_2)
        finally:
            sampler.stop()

        assert main(["obs", "tail", plan_dir, "--once"]) == 0
        frame = capsys.readouterr().out
        assert "2/6 done" in frame
        assert "sampler lane(s)" in frame
        assert f"pid {os.getpid():>7}" in frame

        self._sweep(tmp_path)  # resume: the plan picks up where it died
        assert main(["obs", "tail", plan_dir]) == 0  # finished: no loop
        frame = capsys.readouterr().out
        assert "6/6 done" in frame
        assert "cached 2/6" in frame  # the interrupted work was reused

    def test_tail_missing_plan_dir_exits_2(self, tmp_path, capsys):
        assert main(["obs", "tail", str(tmp_path / "nope"),
                     "--once"]) == 2
        capsys.readouterr()

    def test_tail_flags_failures(self, tmp_path, capsys):
        from repro.exec import RunSpec, SweepPlan
        from repro.util.units import MSEC

        plan_dir = str(tmp_path / "plan")
        specs = [RunSpec.make("FTQ", 60 * MSEC, s, 2) for s in range(3)]
        plan = SweepPlan(specs, shards=1, plan_dir=plan_dir)
        plan.save()
        journal = plan.journal()
        tokens = list(plan.tokens)
        journal.record(tokens[0], "done", cached=True, elapsed_s=0.5)
        journal.record(tokens[1], "done", cached=False, elapsed_s=1.5)
        journal.record(tokens[2], "failed")
        journal.close()

        assert main(["obs", "tail", plan_dir, "--once"]) == 1
        frame = capsys.readouterr().out
        assert "2/3 done" in frame
        assert "1 failed" in frame
        assert "cached 1/2 (50%)" in frame
        assert "busy 2.0s" in frame

    def test_tail_session_derives_throughput(self, tmp_path):
        from repro.exec import RunSpec, SweepPlan
        from repro.obs.tools import TailSession
        from repro.util.units import MSEC

        plan_dir = str(tmp_path / "plan")
        specs = [RunSpec.make("FTQ", 60 * MSEC, s, 2) for s in range(8)]
        plan = SweepPlan(specs, shards=1, plan_dir=plan_dir)
        plan.save()
        journal = plan.journal()
        tokens = list(plan.tokens)
        journal.record(tokens[0], "done", cached=False, elapsed_s=0.1)

        session = TailSession(plan_dir)
        first, _ = session.frame()
        assert session.rate is None  # one observation: no rate yet
        for token in tokens[1:4]:
            journal.record(token, "done", cached=False, elapsed_s=0.1)
        journal.close()
        import time as time_mod

        time_mod.sleep(0.01)
        second, state = session.frame()
        assert session.rate is not None and session.rate > 0
        assert f"rate {session.rate:.1f}/s" in second
        assert "  eta " in second
        assert state["done"] == 4 and state["total"] == 8


# ----------------------------------------------------------------------
# sweep --summary-json embeds the telemetry aggregate + sampler stats
# ----------------------------------------------------------------------

class TestSweepSummaryObs:
    def test_summary_embeds_aggregate_and_sampler(self, tmp_path, capsys):
        summary_path = str(tmp_path / "summary.json")
        plan_dir = str(tmp_path / "plan")
        rc = main([
            "sweep", "FTQ", "--duration", "60ms", "--seeds", "0:2",
            "--ncpus", "2", "--serial",
            "--cache-dir", str(tmp_path / "cache"), "--plan", plan_dir,
            "--obs", str(tmp_path / "cap.jsonl"), "--obs-sample-ms", "20",
            "--summary-json", summary_path,
        ])
        assert rc == 0
        capsys.readouterr()
        with open(summary_path, encoding="utf-8") as fp:
            summary = json.load(fp)
        embedded = summary["obs"]
        assert embedded["counters"]["runner.runs"] == 2
        assert "analysis" in embedded["spans"]
        sampler = embedded["sampler"]
        assert sampler["period_ms"] == 20
        # The summary is written while the sampler still runs, so only
        # the t=0 baseline sample is guaranteed at that point.
        assert sampler["samples"] >= 1
        assert sampler["dropped"] == 0
        assert sampler["spill"] == obs.sample_file_path(
            os.path.join(plan_dir, "samples")
        )
        # The spill the dashboard follows exists and parses.
        assert obs.load_sample_dir(os.path.join(plan_dir, "samples"))

    def test_sample_ms_requires_obs(self, capsys):
        rc = main(["sweep", "FTQ", "--duration", "60ms", "--seeds",
                   "0:1", "--obs-sample-ms", "20"])
        assert rc == 2
        assert "--obs" in capsys.readouterr().err
