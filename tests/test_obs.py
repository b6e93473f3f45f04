"""Tests for the self-observability layer (repro.obs).

Covers the metrics registry (labeled series, histogram buckets,
cross-process snapshot/merge), span nesting and exception safety, the
no-op mode contract (disabled => zero series, near-zero overhead), and
the ``selftrace`` CLI profile's Chrome-trace structure.
"""

import contextlib
import io
import json
import os
import threading
import time

import pytest

from repro import obs
from repro.obs.metrics import NOOP, MetricsRegistry


@pytest.fixture(autouse=True)
def _clean_registry():
    """Every test starts and ends with a disabled, empty global registry."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------

class TestRegistry:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("cache.hit").inc()
        reg.counter("cache.hit").inc(2)
        assert reg.counter("cache.hit").value == 3

    def test_labels_split_series(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("records", cpu=0).inc(5)
        reg.counter("records", cpu=1).inc(7)
        assert reg.counter("records", cpu=0).value == 5
        assert reg.counter("records", cpu=1).value == 7
        assert len(reg.series("counter")) == 2

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("x", a=1, b=2).inc()
        reg.counter("x", b=2, a=1).inc()
        assert reg.counter("x", a=1, b=2).value == 2

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry(enabled=True)
        g = reg.gauge("depth")
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.value == 3

    def test_histogram_buckets(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("lat", buckets=(10.0, 100.0, 1000.0))
        for v in (5, 10, 50, 500, 5000):
            h.observe(v)
        # counts[i] counts observations <= buckets[i]; last is overflow.
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.sum == 5565
        assert h.min == 5 and h.max == 5000

    def test_snapshot_shape(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("c", k="v").inc(9)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(3)
        snap = reg.snapshot()
        assert snap["meta"]["pid"] > 0
        assert snap["counters"] == [{"name": "c", "labels": {"k": "v"},
                                     "value": 9}]
        assert snap["gauges"][0]["value"] == 1.5
        assert snap["histograms"][0]["count"] == 1
        json.dumps(snap)  # must be JSON-able as-is

    def test_drain_resets_but_keeps_epoch(self):
        reg = MetricsRegistry(enabled=True)
        epoch = reg.epoch_ns
        reg.counter("c").inc()
        snap = reg.drain_snapshot()
        assert snap["counters"][0]["value"] == 1
        assert reg.series() == []
        assert reg.epoch_ns == epoch

    def test_merge_adds_counters_and_histograms(self):
        worker = MetricsRegistry(enabled=True)
        worker.counter("cache.hit").inc(2)
        worker.gauge("occ", cpu=0).set(0.5)
        worker.histogram("lat", buckets=(10.0, 100.0)).observe(7)
        parent = MetricsRegistry(enabled=True)
        parent.counter("cache.hit").inc(1)
        parent.histogram("lat", buckets=(10.0, 100.0)).observe(500)

        parent.merge_snapshot(worker.snapshot())
        assert parent.counter("cache.hit").value == 3
        assert parent.gauge("occ", cpu=0).value == 0.5
        h = parent.histogram("lat", buckets=(10.0, 100.0))
        assert h.count == 2
        assert h.counts == [1, 0, 1]
        assert h.min == 7 and h.max == 500

    def test_merge_snapshot_roundtrips_through_json(self):
        worker = MetricsRegistry(enabled=True)
        with obs.span("run", registry=worker, seed=3):
            worker.counter("sim.events").inc(42)
        wire = json.loads(json.dumps(worker.snapshot()))
        parent = MetricsRegistry(enabled=True)
        parent.merge_snapshot(wire)
        assert parent.counter("sim.events").value == 42
        assert parent.spans[0].name == "run"
        assert parent.spans[0].labels == {"seed": 3}

    def test_merge_keeps_worker_pid_on_spans(self):
        worker = MetricsRegistry(enabled=True)
        with obs.span("run", registry=worker):
            pass
        snap = worker.snapshot()
        snap["spans"][0]["pid"] = 99999  # pretend another process
        parent = MetricsRegistry(enabled=True)
        parent.merge_snapshot(snap)
        assert parent.spans[0].pid == 99999


# ----------------------------------------------------------------------
# No-op mode
# ----------------------------------------------------------------------

class TestNoopMode:
    def test_disabled_registry_hands_out_noop(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("c") is NOOP
        assert reg.gauge("g") is NOOP
        assert reg.histogram("h") is NOOP

    def test_disabled_calls_leave_zero_series(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("c").inc(100)
        reg.gauge("g").set(5)
        reg.histogram("h").observe(1)
        with obs.span("phase", registry=reg):
            pass
        assert reg.series() == []
        assert reg.spans == []

    def test_global_facade_noop_when_disabled(self):
        obs.counter("never").inc()
        with obs.span("never"):
            pass
        snap = obs.snapshot()
        assert snap["counters"] == []
        assert snap["spans"] == []

    def test_enable_disable_roundtrip(self):
        import os

        from repro.obs.metrics import OBS_ENV

        assert not obs.enabled()
        obs.enable()
        assert obs.enabled()
        assert os.environ.get(OBS_ENV) == "1"
        obs.counter("c").inc()
        obs.disable()
        assert not obs.enabled()
        assert OBS_ENV not in os.environ
        # Already-recorded series survive disable (kept for export).
        assert obs.snapshot()["counters"][0]["value"] == 1


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

class TestSpans:
    def test_records_wall_and_cpu(self):
        reg = MetricsRegistry(enabled=True)
        with obs.span("work", registry=reg):
            time.sleep(0.005)
        (rec,) = reg.spans
        assert rec.name == "work"
        assert rec.dur_ns >= 4_000_000
        assert rec.cpu_ns >= 0
        assert rec.error is False

    def test_nesting_depth(self):
        reg = MetricsRegistry(enabled=True)
        with obs.span("outer", registry=reg):
            assert obs.current_depth() == 1
            with obs.span("inner", registry=reg):
                assert obs.current_depth() == 2
        assert obs.current_depth() == 0
        by_name = {r.name: r for r in reg.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1

    def test_exception_recorded_and_propagated(self):
        reg = MetricsRegistry(enabled=True)
        with pytest.raises(KeyError):
            with obs.span("boom", registry=reg):
                raise KeyError("x")
        (rec,) = reg.spans
        assert rec.error is True
        assert obs.current_depth() == 0  # stack unwound cleanly

    def test_decorator_form(self):
        obs.enable()

        @obs.span("fn", flavor="test")
        def double(x):
            return 2 * x

        assert double(3) == 6
        assert double(4) == 8
        spans = obs.REGISTRY.spans
        assert [s.name for s in spans] == ["fn", "fn"]
        assert spans[0].labels == {"flavor": "test"}

    def test_threads_have_independent_stacks(self):
        reg = MetricsRegistry(enabled=True)
        depths = []

        def worker():
            with obs.span("t", registry=reg):
                depths.append(obs.current_depth())

        with obs.span("main", registry=reg):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert depths == [1]  # not 2: the main thread's span is invisible
        assert {r.depth for r in reg.spans} == {0}

    def test_mem_peak_reported(self):
        reg = MetricsRegistry(enabled=True)
        with obs.span("mem", registry=reg):
            pass
        assert reg.spans[0].mem_peak_kb is None or reg.spans[0].mem_peak_kb > 0


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------

class TestExport:
    def _populated(self):
        obs.enable()
        with obs.span("simulate", workload="FTQ"):
            with obs.span("inner"):
                pass
        obs.counter("tracing.records_lost").inc(0)
        obs.counter("cache.hit").inc(3)
        obs.gauge("occ", cpu=0).set(0.25)
        obs.histogram("lat").observe(12)
        return obs.snapshot()

    def test_jsonl_lines_parse(self, tmp_path):
        snap = self._populated()
        path = str(tmp_path / "t.jsonl")
        n = obs.write_jsonl(path, snap)
        lines = [json.loads(line) for line in open(path)]
        assert n == len(lines)
        kinds = {line["type"] for line in lines}
        assert {"meta", "counter", "gauge", "histogram", "span"} <= kinds

    def test_chrome_trace_loads_back(self, tmp_path):
        snap = self._populated()
        path = str(tmp_path / "t.json")
        obs.write_chrome_trace(path, snap)
        from readers import read_chrome_trace

        events = read_chrome_trace(path)
        complete = [e for e in events if e["ph"] == "X"]
        counters = [e for e in events if e["ph"] == "C"]
        metas = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in complete} == {"simulate", "inner"}
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in complete)
        assert any("cache.hit" in e["name"] for e in counters)
        # Zero-valued counters still export (loss counters must be visible).
        assert any("records_lost" in e["name"] for e in counters)
        assert any(e["name"] == "process_name" for e in metas)

    def test_aggregate(self):
        snap = self._populated()
        agg = obs.aggregate(snap)
        assert agg["counters"]["cache.hit"] == 3
        assert agg["spans"]["simulate"]["count"] == 1
        assert agg["spans"]["simulate"]["total_ms"] >= 0


# ----------------------------------------------------------------------
# Heartbeat
# ----------------------------------------------------------------------

class TestHeartbeat:
    def test_ticks_and_finish(self):
        obs.enable()
        out = io.StringIO()
        hb = obs.Heartbeat("load", total=4, interval_s=0.0, stream=out)
        hb.tick(1)
        hb.tick(2, "halfway...")
        hb.finish("done")
        text = out.getvalue()
        assert "[load] 1/4" in text
        assert "halfway..." in text
        assert "done" in text
        snap = obs.snapshot()
        counters = {
            (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
            for c in snap["counters"]
        }
        assert counters[("progress.heartbeats", (("label", "load"),))] == 2

    def test_rate_limited(self):
        obs.enable()
        out = io.StringIO()
        hb = obs.Heartbeat("x", total=100, interval_s=3600.0, stream=out)
        for i in range(50):
            hb.tick(i + 1)
        # First tick prints, the rest fall inside the interval.
        assert out.getvalue().count("\n") == 1


# ----------------------------------------------------------------------
# Overhead guard: disabled instrumentation must be ~free
# ----------------------------------------------------------------------

class _StubSpan:
    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def __call__(self, fn):
        return fn


class _StubObs:
    """Same surface as repro.obs with every call compiled away."""

    span = _StubSpan
    Heartbeat = None

    @staticmethod
    def enabled():
        return False

    @staticmethod
    def counter(name, **labels):
        return NOOP

    gauge = counter
    histogram = counter

    @staticmethod
    def drain_snapshot():
        return {}

    @staticmethod
    def merge_snapshot(snap):
        pass


#: Every module the PR instrumented; the guard stubs obs out of all of them.
_INSTRUMENTED = (
    "repro.simkernel.engine",
    "repro.tracing.tracer",
    "repro.core.engine",
    "repro.core.nesting",
    "repro.core.analysis",
    "repro.exec.store",
    "repro.exec.backend",
    "repro.exec.plan",
    "repro.exec.journal",
    "repro.core.sweep",
    "repro.stream.analysis",
)


def _pipeline_once():
    from repro.core import NoiseAnalysis, TraceMeta
    from repro.workloads import FTQWorkload
    from repro.util.units import SEC

    node, trace = FTQWorkload().run_traced(1 * SEC, seed=3, ncpus=2)
    analysis = NoiseAnalysis(trace, meta=TraceMeta.from_node(node))
    analysis.stats_by_event()
    analysis.total_noise_ns()


def _interleaved_best_of(n, *arms):
    """Best-of-``n`` pipeline seconds per arm.  Each round runs one
    pipeline under each arm (a context-manager factory) in turn, so host
    drift over the measurement hits every arm alike."""
    best = [float("inf")] * len(arms)
    for _ in range(n):
        for i, arm in enumerate(arms):
            with arm():
                t0 = time.perf_counter()
                _pipeline_once()
                best[i] = min(best[i], time.perf_counter() - t0)
    return best


class TestDisabledOverhead:
    def test_disabled_overhead_under_two_percent(self):
        """A 1s FTQ pipeline with obs disabled must cost within 2% of the
        same pipeline with every obs call stubbed out entirely."""
        import importlib

        stub = _StubObs()

        @contextlib.contextmanager
        def stubbed_obs():
            with pytest.MonkeyPatch.context() as mp:
                for modname in _INSTRUMENTED:
                    mp.setattr(importlib.import_module(modname), "obs", stub)
                yield

        assert not obs.enabled()
        _pipeline_once()  # warm imports and caches for both arms
        instrumented, stubbed = _interleaved_best_of(
            5, contextlib.nullcontext, stubbed_obs
        )

        # 2% plus a 2ms grace against scheduler jitter on tiny baselines.
        assert instrumented <= stubbed * 1.02 + 0.002, (
            f"disabled-mode overhead too high: instrumented {instrumented:.4f}s"
            f" vs stubbed {stubbed:.4f}s"
        )


# ----------------------------------------------------------------------
# selftrace CLI profile
# ----------------------------------------------------------------------

class TestSelftrace:
    def test_profile_structure(self, tmp_path, capsys):
        from repro.cli import main
        from readers import read_chrome_trace

        out = str(tmp_path / "prof.json")
        rc = main(["selftrace", "--workload", "FTQ", "--duration", "300ms",
                   "--ncpus", "2", "--out", out])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "phases:" in stdout and "counters:" in stdout

        events = read_chrome_trace(out)
        spans = {e["name"] for e in events if e["ph"] == "X"}
        counters = {e["name"] for e in events if e["ph"] == "C"}
        # The acceptance set: every pipeline phase shows up.
        assert {"simulate", "trace-decode", "nesting", "classify",
                "analysis"} <= spans
        assert all(e["ts"] >= 0 and e["dur"] >= 0
                   for e in events if e["ph"] == "X")
        assert any("records_lost" in name for name in counters)
        assert any("cache.hit" in name for name in counters)
        assert any("cache.miss" in name for name in counters)
        assert any(e["name"] == "process_name" for e in events
                   if e["ph"] == "M")
        # main() cleaned up: the next command starts unobserved.
        assert not obs.enabled()
        assert obs.snapshot()["spans"] == []

    def test_selftrace_config_file(self, tmp_path, capsys):
        from repro.cli import main

        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"workload": "FTQ", "duration": "200ms", "seed": 1, "ncpus": 2}
        ))
        out = str(tmp_path / "p.json")
        rc = main(["selftrace", "--config", str(config), "--out", out])
        assert rc == 0
        assert "seed 1" in capsys.readouterr().out

    def test_unknown_workload(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["selftrace", "--workload", "HPL",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2


# ----------------------------------------------------------------------
# Time-series sampler
# ----------------------------------------------------------------------

class TestSampler:
    def _reg(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("cache.hit").inc(3)
        reg.gauge("depth").set(2)
        reg.histogram("lat").observe(5)
        return reg

    def test_sample_now_captures_scalar_series(self):
        sampler = obs.Sampler(registry=self._reg())
        first = sampler.sample_now()
        second = sampler.sample_now()
        assert first["metrics"]["cache.hit"] == 3
        assert first["metrics"]["depth"] == 2
        assert first["metrics"]["lat:count"] == 1
        assert first["metrics"]["lat:sum"] == 5
        assert first["pid"] == os.getpid()
        assert (first["seq"], second["seq"]) == (0, 1)
        assert second["mono_ns"] > first["mono_ns"]

    def test_ring_bounded_and_honest_about_drops(self):
        sampler = obs.Sampler(registry=self._reg(), maxlen=4)
        for _ in range(10):
            sampler.sample_now()
        assert len(sampler.samples()) == 4
        assert sampler.ring.appended == 10
        assert sampler.ring.dropped == 6
        # The window keeps the most recent samples, oldest first.
        assert [s["seq"] for s in sampler.samples()] == [6, 7, 8, 9]

    def test_spill_keeps_everything_the_ring_forgot(self, tmp_path):
        sampler = obs.Sampler(registry=self._reg(), maxlen=2,
                              spill_dir=str(tmp_path))
        for _ in range(5):
            sampler.sample_now()
        sampler.stop()  # never started: just closes the spill file
        assert sampler.ring.dropped == 0  # spilled, not forgotten
        path = obs.sample_file_path(str(tmp_path))
        with open(path, encoding="utf-8") as fp:
            header = json.loads(fp.readline())
        assert header["type"] == "sample-meta"
        assert header["schema"] == 1
        assert header["pid"] == os.getpid()
        samples = obs.load_sample_file(path)
        assert [s["seq"] for s in samples] == [0, 1, 2, 3, 4]

    def test_periodic_thread_samples_on_cadence(self):
        sampler = obs.Sampler(registry=self._reg(), period_s=0.02)
        sampler.start()
        assert sampler.running
        time.sleep(0.1)
        samples = sampler.stop()
        assert not sampler.running
        # t=0 baseline + >=2 periodic ticks + the closing sample.
        assert len(samples) >= 4
        seqs = [s["seq"] for s in samples]
        assert seqs == list(range(len(samples)))
        monos = [s["mono_ns"] for s in samples]
        assert monos == sorted(monos)
        stats = sampler.stats()
        assert stats["period_ms"] == 20
        assert stats["samples"] == len(samples)
        assert stats["max_gap_ms"] > 0

    def test_start_exports_env_and_stop_retracts_it(self, tmp_path):
        sampler = obs.Sampler(registry=self._reg(), period_s=0.05,
                              spill_dir=str(tmp_path))
        sampler.start(export_env=True)
        try:
            assert os.environ[obs.OBS_SAMPLE_ENV] == "50"
            assert os.environ[obs.OBS_SPILL_ENV] == str(tmp_path)
        finally:
            sampler.stop()
        assert obs.OBS_SAMPLE_ENV not in os.environ
        assert obs.OBS_SPILL_ENV not in os.environ

    def test_worker_autostart_follows_the_env(self, monkeypatch, tmp_path):
        from repro.obs.sampler import (
            maybe_start_worker_sampler,
            stop_worker_sampler,
        )

        monkeypatch.delenv(obs.OBS_SAMPLE_ENV, raising=False)
        assert maybe_start_worker_sampler(self._reg()) is None

        monkeypatch.setenv(obs.OBS_SAMPLE_ENV, "20")
        monkeypatch.setenv(obs.OBS_SPILL_ENV, str(tmp_path))
        disabled = MetricsRegistry(enabled=False)
        assert maybe_start_worker_sampler(disabled) is None

        try:
            sampler = maybe_start_worker_sampler(self._reg())
            assert sampler is not None and sampler.running
            assert sampler.label == f"worker-{os.getpid()}"
            assert sampler.period_s == 0.02
            assert sampler.spill_dir == str(tmp_path)
            # Idempotent per process: the second call is the same sampler.
            assert maybe_start_worker_sampler() is sampler
        finally:
            stop_worker_sampler()
        assert obs.load_sample_dir(str(tmp_path))

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            obs.Sampler(period_s=0)

    def test_stop_is_idempotent_sequentially(self):
        sampler = obs.Sampler(registry=self._reg(), period_s=60.0)
        sampler.start()
        first = sampler.stop()
        assert [s["seq"] for s in first] == [0, 1]  # baseline + closing
        # Repeated stops return the window without sampling again.
        assert sampler.stop() == first
        assert sampler.ring.appended == 2

    def test_concurrent_stops_emit_exactly_one_closing_sample(self,
                                                              tmp_path):
        """The service shutdown path can call stop() from an atexit hook
        and a SIGTERM handler at once; both passing the thread-is-set
        check used to emit two closing samples."""
        sampler = obs.Sampler(registry=self._reg(), period_s=60.0,
                              spill_dir=str(tmp_path))
        sampler.start()
        barrier = threading.Barrier(4)
        errors = []

        def stopper():
            try:
                barrier.wait()
                sampler.stop()
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)

        threads = [threading.Thread(target=stopper) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert not sampler.running
        # Exactly two samples for the whole lifecycle: the t=0 baseline
        # and ONE closing reading — no matter how many stoppers raced.
        assert sampler.ring.appended == 2
        spilled = obs.load_sample_file(obs.sample_file_path(str(tmp_path)))
        assert [s["seq"] for s in spilled] == [0, 1]


# ----------------------------------------------------------------------
# Cross-process sample merge
# ----------------------------------------------------------------------

def _fake_sample(seq, mono_ns, pid, **metrics):
    return {"seq": seq, "mono_ns": mono_ns, "pid": pid,
            "metrics": metrics}


class TestSampleMerge:
    def test_merge_is_globally_ordered_and_stable(self):
        a = [_fake_sample(0, 100, 11), _fake_sample(1, 300, 11)]
        b = [_fake_sample(0, 50, 22), _fake_sample(1, 300, 22),
             _fake_sample(2, 400, 22)]
        merged = obs.merge_samples(a, b)
        assert [s["mono_ns"] for s in merged] == [50, 100, 300, 300, 400]
        # Equal timestamps tie-break on (pid, seq): deterministic.
        assert [(s["pid"], s["seq"]) for s in merged if
                s["mono_ns"] == 300] == [(11, 1), (22, 1)]

    def test_torn_final_line_is_dropped_not_fatal(self, tmp_path):
        path = tmp_path / "samples-1.jsonl"
        path.write_text(
            '{"type": "sample-meta", "schema": 1, "pid": 1}\n'
            '{"seq": 0, "mono_ns": 10, "pid": 1, "metrics": {}}\n'
            '{"seq": 1, "mono_ns": 20, "pid": 1, "metrics": {}}\n'
            '{"seq": 2, "mono_ns": 3'  # killed mid-write
        )
        samples = obs.load_sample_file(str(path))
        assert [s["seq"] for s in samples] == [0, 1]

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "samples-1.jsonl"
        path.write_text(
            'not json\n'
            '{"seq": 0, "mono_ns": 10, "pid": 1, "metrics": {}}\n'
        )
        with pytest.raises(ValueError):
            obs.load_sample_file(str(path))

    def test_pool_workers_spill_and_merge_into_one_timeline(self, tmp_path):
        """Parent + pool workers each write samples-<pid>.jsonl; the merge
        is one globally time-ordered series, monotonic per worker."""
        from repro.exec import LocalPoolBackend, RunSpec, SweepPlan
        from repro.util.units import MSEC

        spill = str(tmp_path / "samples")
        obs.enable()
        sampler = obs.Sampler(period_s=0.02, spill_dir=spill)
        sampler.start(export_env=True)
        try:
            specs = [RunSpec.make("FTQ", 60 * MSEC, s, 2) for s in range(4)]
            results = SweepPlan(specs).execute(LocalPoolBackend(2))
        finally:
            sampler.stop()
        assert len(results) == 4

        files = obs.sample_files_in(spill)
        assert len(files) >= 3  # the parent and both pool workers
        merged = obs.load_sample_dir(spill)
        pids = {s["pid"] for s in merged}
        assert os.getpid() in pids and len(pids) >= 3

        keys = [(s["mono_ns"], s["pid"], s["seq"]) for s in merged]
        assert keys == sorted(keys)  # one global timeline
        by_pid = {}
        for s in merged:
            by_pid.setdefault(s["pid"], []).append(s)
        for worker_samples in by_pid.values():
            seqs = [s["seq"] for s in worker_samples]
            assert seqs == list(range(len(seqs)))  # contiguous: no loss
            monos = [s["mono_ns"] for s in worker_samples]
            assert monos == sorted(monos)

    def test_worker_death_loses_no_samples(self, tmp_path):
        """FlakyBackend kills the dispatch mid-campaign; the spill stays
        gap-free and a later sample records the death counter."""
        from repro.exec import FlakyBackend, RunSpec, SerialBackend, SweepPlan
        from repro.util.units import MSEC

        spill = str(tmp_path / "samples")
        obs.enable()
        sampler = obs.Sampler(period_s=0.01, spill_dir=spill)
        sampler.start()
        try:
            flaky = FlakyBackend(SerialBackend(), failures=1, survive=1)
            specs = [RunSpec.make("FTQ", 60 * MSEC, s, 2) for s in range(4)]
            results = SweepPlan(specs).execute(flaky)
        finally:
            sampler.stop()
        assert len(results) == 4 and flaky.injected == 1

        (path,) = obs.sample_files_in(spill)
        samples = obs.load_sample_file(path)
        assert [s["seq"] for s in samples] == list(range(len(samples)))
        deaths = [
            s["metrics"]["backend.worker_deaths"]
            for s in samples
            if "backend.worker_deaths" in s.get("metrics", {})
        ]
        assert deaths and deaths[-1] >= 1


# ----------------------------------------------------------------------
# Sampler overhead guard: 100 ms sampling must stay under 2%
# ----------------------------------------------------------------------

class TestSamplerOverhead:
    def test_sampler_overhead_under_two_percent(self):
        """A 1s FTQ pipeline with obs enabled plus the 100 ms sampler
        must cost within 2% of the same pipeline without the sampler."""
        samplers = []

        @contextlib.contextmanager
        def with_sampler():
            sampler = obs.Sampler(period_s=0.1)
            samplers.append(sampler)
            sampler.start()
            try:
                yield
            finally:
                sampler.stop()

        obs.enable()
        _pipeline_once()  # warm imports and caches for both arms
        plain, sampled = _interleaved_best_of(
            5, contextlib.nullcontext, with_sampler
        )

        assert len(samplers) == 5
        assert all(s.ring.appended >= 2 for s in samplers)  # they really ran
        # 2% plus a 2ms grace against scheduler jitter on tiny baselines.
        assert sampled <= plain * 1.02 + 0.002, (
            f"sampler overhead too high: sampled {sampled:.4f}s"
            f" vs plain {plain:.4f}s"
        )


# ----------------------------------------------------------------------
# Heartbeat telemetry (rate gauge, finish-without-tick, zero elapsed)
# ----------------------------------------------------------------------

class TestHeartbeatTelemetry:
    def _gauges(self, reg):
        return {
            (g["name"], tuple(sorted(g["labels"].items()))): g["value"]
            for g in reg.snapshot()["gauges"]
        }

    def test_tick_publishes_rate_gauge(self):
        reg = MetricsRegistry(enabled=True)
        hb = obs.Heartbeat("x", total=10, interval_s=3600.0,
                           stream=io.StringIO(), registry=reg)
        time.sleep(0.002)  # ensure elapsed > 0 on coarse clocks
        hb.tick(5)
        gauges = self._gauges(reg)
        key = ("progress.rate", (("label", "x"),))
        assert gauges[key] > 0
        assert gauges[("progress.units_done", (("label", "x"),))] == 5

    def test_finish_records_final_truth_without_any_tick(self):
        reg = MetricsRegistry(enabled=True)
        out = io.StringIO()
        hb = obs.Heartbeat("load", total=2, interval_s=3600.0,
                           stream=out, registry=reg)
        hb.done = 2  # progress tracked elsewhere; tick() never called
        time.sleep(0.002)
        hb.finish("done")
        assert "[load] done: 2/2" in out.getvalue()
        gauges = self._gauges(reg)
        label = (("label", "load"),)
        assert gauges[("progress.units_done", label)] == 2
        assert gauges[("progress.elapsed_s", label)] > 0
        assert gauges[("progress.rate", label)] > 0

    def test_zero_elapsed_never_divides(self, monkeypatch):
        monkeypatch.setattr(time, "perf_counter", lambda: 100.0)
        reg = MetricsRegistry(enabled=True)
        out = io.StringIO()
        hb = obs.Heartbeat("z", total=1, interval_s=0.0,
                           stream=out, registry=reg)
        hb.tick(1)
        hb.finish()  # elapsed == 0: no ZeroDivisionError, no rate gauge
        gauges = self._gauges(reg)
        label = (("label", "z"),)
        assert gauges[("progress.units_done", label)] == 1
        assert gauges[("progress.elapsed_s", label)] == 0
        assert ("progress.rate", label) not in gauges
        assert "(0.0/s)" in out.getvalue()
