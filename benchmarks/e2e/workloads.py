"""The four benchmark workloads: record, analyze, sweep, serve.

Each workload has a ``setup_*`` function (run several times; the median
is ``setup_s``) and a ``loop_*`` function that measures for the requested
number of seconds.  Closed loops stop only at a round boundary, so every
run measures whole rounds of the same composition and its percentiles do
not depend on where the clock ran out.  Inputs are drawn from the run's
seed; the program only ever sees the generated specs, traces and requests.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import repro.core.analysis as core_analysis
from repro.core.analysis import NoiseAnalysis
from repro.core.model import TraceMeta
from repro.core.report import full_report, render_analysis_summary
from repro.core.sweep import SeedSweep
from repro.exec import RunSpec, SerialBackend, ShardedStore, SweepPlan
from repro.obs.export import read_jsonl
from repro.stream.analysis import StreamingAnalysis
from repro.tracing.ctf import Trace
from repro.tracing.tracer import Tracer
from repro.util.units import MSEC, SEC

from harness import RefClock, SpanRecorder, peak_rss_mb, percentile

APPS = ("AMG", "UMT", "IRS", "LAMMPS", "SPHOT")


@dataclass
class Context:
    """What one run measured; filled by the workload functions."""

    seed: int
    seconds: float
    spans: SpanRecorder
    work_dir: str
    src_dir: str
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: converts each op's wall time to reference seconds (set by run.py)
    clock: Optional[RefClock] = None
    #: per-op samples: metric -> op class -> values.  Statistics are taken
    #: per class, so the mix of classes a seed draws cannot move them.
    samples: Dict[str, Dict[Any, List[float]]] = field(default_factory=dict)
    #: per-class sums over the run: metric -> op class -> [units, seconds]
    totals: Dict[str, Dict[Any, List[float]]] = field(default_factory=dict)
    #: self time moved between layers after the loop: (from, to, ns)
    moves: List[Tuple[str, str, int]] = field(default_factory=list)
    digest: Any = field(default_factory=hashlib.sha256)
    layer: Dict[str, float] = field(default_factory=dict)
    rss_mb: Optional[float] = None

    def check(self, ok: bool, what: str) -> None:
        """A failed correctness check counts as a failed operation."""
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def sample(self, cls: Any, **values: float) -> None:
        for metric, value in values.items():
            self.samples.setdefault(metric, {}).setdefault(cls, []).append(
                value)

    def count(self, cls: Any, **rates: Tuple[float, float]) -> None:
        """Adds ``(units, seconds)`` to each named rate of a class."""
        for metric, (units, seconds) in rates.items():
            acc = self.totals.setdefault(metric, {}).setdefault(
                cls, [0.0, 0.0])
            acc[0] += units
            acc[1] += seconds


def _records(trace: Trace) -> int:
    return sum(p.n_records for p in trace.packets)


# ----------------------------------------------------------------------
# record: simulate + trace + encode
# ----------------------------------------------------------------------
RECORD_NS = 1 * SEC
#: every Nth spec of a traced run is also simulated untraced (N coprime
#: with the number of apps, so every app is sampled)
UNTRACED_EVERY = 6
#: CTF round trips (encode + decode) of each recorded trace
ROUND_TRIPS = 8


def setup_record(ctx: Context) -> random.Random:
    # Short runs of every application warm imports and lazily built
    # tables, so the loop measures steady-state simulation.
    for app in APPS:
        RunSpec.make(app, 10 * MSEC, 0, 8).execute()
    return random.Random(ctx.seed)


def _record_traced(ctx: Context, spec: RunSpec):
    """``RunSpec.execute`` split at its public calls, one span each.

    It must mirror ``RunSpec.execute`` and ``Workload.run_traced`` step
    for step; the golden digest, which traced runs must reproduce,
    guards that.
    """
    sp = ctx.spans
    with sp.span("build", "simkernel"):
        workload = spec.build_workload()
        node = workload.build_node(seed=spec.seed, ncpus=spec.ncpus)
    with sp.span("attach", "tracing"):
        tracer = Tracer(node)
        tracer.attach()
    with sp.span("install", "simkernel"):
        workload.install(node)
    with sp.span("run", "simkernel"):
        t0 = time.perf_counter_ns()
        node.run(spec.duration_ns)
        run_ns = time.perf_counter_ns() - t0
    with sp.span("finish", "tracing"):
        trace = tracer.finish()
    with sp.span("meta", "simkernel"):
        meta = TraceMeta.from_node(node)
    return trace, meta, tracer, run_ns


def loop_record(ctx: Context, rng: random.Random) -> None:
    sp = ctx.spans
    traced_run_ns = untraced_run_ns = sampled_recs = 0
    written = lost = total_recs = 0
    t_end = time.perf_counter() + ctx.seconds
    n = 0
    first_cycle = True
    while first_cycle or time.perf_counter() < t_end:
        for app in APPS:
            spec = RunSpec.make(app, RECORD_NS, rng.randrange(2**31), 8)
            ctx.attempted += 1
            with sp.span(app, "harness", op=n):
                t0 = time.perf_counter()
                if sp.enabled:
                    trace, meta, tracer, run_ns = _record_traced(ctx, spec)
                    written += tracer.records_written
                    lost += tracer.records_lost
                else:
                    trace, meta = spec.execute()
                t1 = time.perf_counter()
                # The decode is the round-trip check's.  One round trip
                # takes under 2 ms, too little to time steadily alone.
                for _ in range(ROUND_TRIPS):
                    with sp.span("encode", "ctf"):
                        data = trace.to_bytes()
                    with sp.span("decode", "ctf"):
                        back = Trace.from_bytes(data)
                t2 = time.perf_counter()
            k = ctx.clock.scale()
            recs = _records(trace)
            ctx.sample(app, op_ms=(t2 - t0) * k * 1e3)
            ctx.count(app, primary=(recs, (t1 - t0) * k),
                      secondary=(ROUND_TRIPS * recs, (t2 - t1) * k),
                      work=(recs, (t2 - t0) * k))
            total_recs += recs
            ctx.check(
                _records(back) == recs and back.end_ts == trace.end_ts,
                f"record: {spec.describe()} does not round-trip",
            )
            if first_cycle:
                ctx.digest.update(data)
            if sp.enabled and n % UNTRACED_EVERY == 0:
                with sp.span("untraced", "harness"):
                    workload = spec.build_workload()
                    node = workload.build_node(seed=spec.seed,
                                               ncpus=spec.ncpus)
                    workload.install(node)
                    t0 = time.perf_counter_ns()
                    node.run(spec.duration_ns)
                    untraced_run_ns += time.perf_counter_ns() - t0
                traced_run_ns += run_ns
                sampled_recs += recs
            n += 1
        first_cycle = False
    if not sp.enabled:
        return
    # The tracer's hooks run inside node.run; their share of it is the
    # gap between traced and untraced runs of the same specs.
    share = 1.0 - untraced_run_ns / traced_run_ns if traced_run_ns else 0.0
    run_self = sp.self_by_name("simkernel").get("run", 0)
    ctx.moves.append(("simkernel", "tracing", int(run_self * share)))
    builds = sp.durations("build")
    installs = sp.durations("install")
    ctx.layer.update({
        "simkernel.build_ms": (sum(builds) + sum(installs)) / len(builds) / 1e6,
        "simkernel.run_ns_per_rec": untraced_run_ns / max(1, sampled_recs),
        "tracing.finish_ms": _mean_ms(sp.durations("finish")),
        "tracing.records": written,
        "tracing.lost": lost,
        "ctf.encode_ns_per_rec": sum(sp.durations("encode"))
        / (ROUND_TRIPS * total_recs),
        "ctf.decode_ns_per_rec": sum(sp.durations("decode"))
        / (ROUND_TRIPS * total_recs),
    })


def _mean_ms(durations_ns: List[int]) -> float:
    return sum(durations_ns) / len(durations_ns) / 1e6 if durations_ns else 0.0


# ----------------------------------------------------------------------
# analyze: decode + batch analysis + renders, and the streaming engine
# ----------------------------------------------------------------------
CORPUS_NS = 1 * SEC
CORPUS_PER_APP = 2
STREAM_PIECE = 64 * 1024


@dataclass
class Corpus:
    items: List[Tuple[bytes, List[bytes], TraceMeta, int]]


def setup_analyze(ctx: Context) -> Corpus:
    rng = random.Random(ctx.seed)
    items = []
    for app in APPS:
        for _ in range(CORPUS_PER_APP):
            spec = RunSpec.make(app, CORPUS_NS, rng.randrange(2**31), 8)
            trace, meta = spec.execute()
            data = trace.to_bytes()
            pieces = [
                data[i:i + STREAM_PIECE]
                for i in range(0, len(data), STREAM_PIECE)
            ]
            items.append((data, pieces, meta, _records(trace)))
    return Corpus(items)


def loop_analyze(ctx: Context, corpus: Corpus) -> None:
    sp = ctx.spans
    t_end = time.perf_counter() + ctx.seconds
    packets = total_recs = 0
    first_pass = True
    n = 0
    while first_pass or time.perf_counter() < t_end:
        for index, (data, pieces, meta, recs) in enumerate(corpus.items):
            ctx.attempted += 1
            with sp.span("trace", "harness", op=n):
                t0 = time.perf_counter()
                with sp.span("decode", "ctf"):
                    trace = Trace.from_bytes(data)
                with sp.span("analysis", "core"):
                    batch = NoiseAnalysis(trace, meta=meta)
                with sp.span("summary", "core"):
                    summary = render_analysis_summary(batch)
                with sp.span("report", "core"):
                    report = full_report(batch, meta=meta)
                t1 = time.perf_counter()
                with sp.span("stream", "stream"):
                    stream = StreamingAnalysis.from_byte_stream(
                        pieces, meta=meta
                    )
                    stream_summary = render_analysis_summary(stream)
                t2 = time.perf_counter()
            k = ctx.clock.scale()
            ctx.sample(index, op_ms=(t2 - t0) * k * 1e3)
            ctx.count(index, primary=(recs, (t1 - t0) * k),
                      secondary=(recs, (t2 - t1) * k),
                      work=(2 * recs, (t2 - t0) * k))
            total_recs += recs
            packets += stream.packets_fed
            with sp.span("check", "harness"):
                ctx.check(
                    batch.total_noise_ns() == stream.total_noise_ns()
                    and summary == stream_summary,
                    f"analyze: trace {index}: batch and stream disagree",
                )
                if first_pass:
                    ctx.digest.update(summary.encode())
                    ctx.digest.update(report.encode())
            n += 1
        first_pass = False
    if not sp.enabled:
        return
    recs = total_recs
    ctx.layer.update({
        "ctf.decode_ns_per_rec": sum(sp.durations("decode")) / recs,
        "core.analysis_ns_per_rec": sum(sp.durations("analysis")) / recs,
        "core.summary_ms": _mean_ms(sp.durations("summary")),
        "core.report_ms": _mean_ms(sp.durations("report")),
        "stream.ns_per_rec": sum(sp.durations("stream")) / recs,
        "stream.packets": packets,
    })


# ----------------------------------------------------------------------
# sweep: seed sweeps through both exec front ends, cold then warm
# ----------------------------------------------------------------------
SWEEP_APP = "LAMMPS"
SWEEP_NS = 100 * MSEC
SWEEP_SEEDS = 48
SWEEP_POOL = 36


class BenchStore(ShardedStore):
    """The result store with its get/put timed from outside."""

    def __init__(self, root: str, spans: SpanRecorder) -> None:
        super().__init__(root)
        self.spans = spans

    def get(self, spec):  # type: ignore[override]
        with self.spans.span("store.get", "exec"):
            return super().get(spec)

    def put(self, spec, trace, meta) -> None:  # type: ignore[override]
        with self.spans.span("store.put", "exec"):
            super().put(spec, trace, meta)


class BenchBackend(SerialBackend):
    """Serial dispatch with each spec's simulation timed and counted."""

    def __init__(self, spans: SpanRecorder) -> None:
        self.spans = spans
        self.executed = 0

    def execute(self, specs):
        for spec in specs:
            with self.spans.span("simulate", "simkernel"):
                (item,) = super().execute([spec])
            self.executed += 1
            yield item


def _timed_analysis_class(spans: SpanRecorder):
    class TimedAnalysis(NoiseAnalysis):
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            with spans.span("analysis", "core"):
                super().__init__(*args, **kwargs)

    return TimedAnalysis


@dataclass
class SweepState:
    rng: random.Random
    pool: List[int]
    root: str


def _one_sweep(ctx: Context, root: str, seeds: List[int], planned: bool,
               counts: Dict[str, int]):
    """A cold and a warm sweep over a fresh store; returns both sweeps
    and their wall times."""
    sp = ctx.spans
    store = BenchStore(os.path.join(root, "store"), sp)
    backend = BenchBackend(sp)
    plan = None
    if planned:
        specs = [RunSpec.make(SWEEP_APP, SWEEP_NS, s, 8) for s in seeds]
        plan = SweepPlan(specs, shards=4, plan_dir=os.path.join(root, "plan"))
        plan.save()
    out = []
    for phase in ("cold", "warm"):
        t0 = time.perf_counter()
        with sp.span(f"sweep.{phase}", "exec"):
            sweep = SeedSweep.run(
                SWEEP_APP, SWEEP_NS, seeds, 8, cache=store,
                backend=backend, plan=plan,
            )
        out.append((sweep, time.perf_counter() - t0))
    counts["requested"] += 2 * len(seeds)
    counts["hits"] += store.hits
    counts["misses"] += store.misses
    counts["executed"] += backend.executed
    return out


def setup_sweep(ctx: Context) -> SweepState:
    rng = random.Random(ctx.seed)
    base = rng.randrange(2**20)
    pool = [base + k for k in range(SWEEP_POOL)]
    root = os.path.join(ctx.work_dir, "sweep-warmup")
    _one_sweep(ctx, root, pool[:4], True, _zero_counts())
    shutil.rmtree(root, ignore_errors=True)
    return SweepState(rng, pool, ctx.work_dir)


def _zero_counts() -> Dict[str, int]:
    return {"requested": 0, "hits": 0, "misses": 0, "executed": 0}


def loop_sweep(ctx: Context, state: SweepState) -> None:
    sp = ctx.spans
    saved = core_analysis.NoiseAnalysis
    if sp.enabled:
        core_analysis.NoiseAnalysis = _timed_analysis_class(sp)
    try:
        _loop_sweep(ctx, state)
    finally:
        core_analysis.NoiseAnalysis = saved


def _loop_sweep(ctx: Context, state: SweepState) -> None:
    sp = ctx.spans
    counts = _zero_counts()
    warm_s: Dict[bool, List[float]] = {True: [], False: []}
    t_end = time.perf_counter() + ctx.seconds
    n = 0
    while n == 0 or time.perf_counter() < t_end:
        # One op is one round; the loop runs rounds in planned/unplanned
        # pairs, so every run measures both front ends equally often.
        for planned in (True, False):
            ctx.attempted += 1
            seeds = [state.rng.choice(state.pool) for _ in range(SWEEP_SEEDS)]
            root = os.path.join(state.root, f"round-{n}-{int(planned)}")
            with sp.span("round", "harness", op=n):
                (cold, tc), (warm, tw) = _one_sweep(
                    ctx, root, seeds, planned, counts
                )
            k = ctx.clock.scale()
            warm_s[planned].append(tw)
            ctx.sample(planned, op_ms=(tc + tw) * k * 1e3)
            ctx.count(planned, primary=(len(seeds), tc * k),
                      secondary=(len(seeds), tw * k),
                      work=(2 * len(seeds), (tc + tw) * k))
            with sp.span("check", "harness"):
                same = all(
                    a.records.tobytes() == b.records.tobytes()
                    and a.total_noise_ns() == b.total_noise_ns()
                    for a, b in zip(cold.analyses, warm.analyses)
                )
                ctx.check(
                    same and len(warm.analyses) == len(seeds),
                    f"sweep: round {n} warm results differ from cold",
                )
                if n == 0:
                    for a in warm.analyses:
                        ctx.digest.update(a.records.tobytes())
                        ctx.digest.update(str(a.total_noise_ns()).encode())
                shutil.rmtree(root, ignore_errors=True)
        n += 1
    if not sp.enabled:
        return
    gets = [d / 1e6 for d in sp.durations("store.get")]
    puts = [d / 1e6 for d in sp.durations("store.put")]
    sweep_total = sum(sp.durations("sweep.cold")) + sum(
        sp.durations("sweep.warm"))
    lookups = counts["hits"] + counts["misses"]
    ctx.layer.update({
        "exec.store.put_ms.p50": percentile(puts, 50),
        "exec.store.put_ms.p95": percentile(puts, 95),
        "exec.store.get_ms.p50": percentile(gets, 50),
        "exec.store.get_ms.p95": percentile(gets, 95),
        "exec.store.hit_ratio": counts["hits"] / lookups if lookups else 0.0,
        "exec.backend_ms.p50": percentile(
            [d / 1e6 for d in sp.durations("simulate")], 50),
        "exec.dedup_ratio": 1.0 - (counts["hits"] + counts["executed"])
        / counts["requested"],
        "exec.sweep.overhead_share": (
            sum(sp.self_by_name("exec").get(k, 0)
                for k in ("sweep.cold", "sweep.warm")) / sweep_total
        ),
        "exec.sweep.planned_warm_ms": percentile(warm_s[True], 50) * 1e3,
        "exec.sweep.unplanned_warm_ms": percentile(warm_s[False], 50) * 1e3,
    })


# ----------------------------------------------------------------------
# serve: open-loop traffic against a `lttng-noise serve` subprocess
# ----------------------------------------------------------------------
SERVE_THREADS = 2
SERVE_HIT_JOBS = 8
SERVE_UPLOADS = 4
SERVE_LIMIT_MS = 250.0
SERVE_POLL_S = 0.005
SERVE_START_TIMEOUT_S = 60.0
#: Op kinds of one block of traffic, in the mix the benchmark was
#: specified with: 50 % hits, 25 % renders, 15 % cold jobs, 10 % uploads.
#: The kinds are laid out so no upload starts next to a cold job.  A fixed
#: pattern means every run overlaps the same kinds of work on the server;
#: the seed picks the specs, jobs, renders and traces.
SERVE_BLOCK = (
    "hit", "cold", "hit", "render", "hit", "upload", "hit", "render", "hit",
    "cold", "hit", "render", "hit", "hit", "upload", "render", "hit", "cold",
    "hit", "render",
)
SERVE_RATE = 25.0  # ops/s
#: Each block has its own schedule.  When every op of a block has
#: completed, the server is idle: the benchmark reads the server's span
#: totals, times the calibration loop, and sends the next block's first
#: op this long after.
SERVE_GAP_S = 0.02
RENDER_KINDS = ("analyze", "report", "chart", "timeline")


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    drain: threading.Thread
    #: the server's own spans, written when it exits (``--obs``)
    obs_path: str

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.drain.join(timeout=30)


@dataclass
class ServeState:
    server: Server
    rng: random.Random
    hit_specs: List[RunSpec]
    hit_ids: List[str]
    hit_text: Dict[str, str]
    uploads: List[Tuple[bytes, str, str, int]]

    def close(self) -> None:
        self.server.stop()


def _start_server(ctx: Context, store: str) -> Server:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("LTTNG_NOISE_OBS")}
    env["PYTHONPATH"] = ctx.src_dir
    env["TMPDIR"] = ctx.work_dir
    obs_path = store + ".obs.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--serial",
         "--max-concurrency", "2", "--listen", "127.0.0.1:0",
         "--store", store, "--obs", obs_path],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, env=env, text=True,
    )
    assert proc.stderr is not None
    port = 0
    watchdog = threading.Timer(SERVE_START_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        for line in proc.stderr:
            if line.startswith("listening on http://"):
                port = int(line.split()[2].rsplit(":", 1)[1])
                break
    finally:
        watchdog.cancel()
    if not port:
        proc.kill()
        proc.wait(timeout=30)
        raise RuntimeError("serve did not announce its port")
    # Keep reading stderr so the server never blocks on a full pipe.
    drain = threading.Thread(target=proc.stderr.read, daemon=True)
    drain.start()
    return Server(proc, port, drain, obs_path)


def setup_serve(ctx: Context) -> ServeState:
    from repro.service.client import ServiceClient

    rng = random.Random(ctx.seed)
    store = os.path.join(ctx.work_dir, f"serve-store-{time.monotonic_ns()}")
    server = _start_server(ctx, store)
    try:
        base = rng.randrange(2**20)
        hit_specs = [
            RunSpec.make("LAMMPS", 100 * MSEC, base + k, 8)
            for k in range(SERVE_HIT_JOBS)
        ]
        uploads = []
        for k in range(SERVE_UPLOADS):
            trace, meta = RunSpec.make(
                "AMG", 200 * MSEC, base + 100 + k, 8).execute()
            expected = render_analysis_summary(NoiseAnalysis(trace, meta=meta))
            uploads.append(
                (trace.to_bytes(), meta.to_json(), expected, _records(trace))
            )
        hit_text = {}
        hit_ids = []
        with ServiceClient("127.0.0.1", server.port) as client:
            for spec in hit_specs:
                result = client.run(spec)
                trace, meta = spec.execute()
                expected = render_analysis_summary(
                    NoiseAnalysis(trace, meta=meta))
                ctx.check(
                    result["result"]["analyze_text"] == expected,
                    f"serve: {spec.describe()} differs from local analyze",
                )
                hit_ids.append(result["job"]["id"])
                hit_text[result["job"]["id"]] = expected
    except BaseException:
        server.stop()
        raise
    return ServeState(server, rng, hit_specs, hit_ids, hit_text, uploads)


def _serve_ops(state: ServeState, n_ops: int) -> List[Tuple[str, Any]]:
    rng = state.rng
    base = rng.randrange(2**20) + 2**21
    ops = []
    for i in range(n_ops):
        kind = SERVE_BLOCK[i % len(SERVE_BLOCK)]
        if kind == "hit":
            arg: Any = rng.randrange(SERVE_HIT_JOBS)
        elif kind == "render":
            arg = (rng.randrange(SERVE_HIT_JOBS), rng.choice(RENDER_KINDS))
        elif kind == "cold":
            arg = RunSpec.make("LAMMPS", 100 * MSEC, base + i, 8)
        else:
            arg = rng.randrange(SERVE_UPLOADS)
        ops.append((kind, arg))
    return ops


def _serve_op(client, state: ServeState, kind: str, arg: Any,
              renders: Dict[Tuple[str, str], str]) -> Optional[str]:
    """Run one op; returns an error description, or None when correct."""
    if kind == "hit":
        spec = state.hit_specs[arg]
        job = client.submit(spec)
        job_id = job["job"]["id"]
        if job["created"]:
            return f"hit: {spec.describe()} was not deduplicated"
        text = client.result(job_id)["result"]["analyze_text"]
        return None if text == state.hit_text[job_id] else "hit: wrong text"
    if kind == "render":
        job_id, render = state.hit_ids[arg[0]], arg[1]
        body = client.render(job_id, render)
        if render == "analyze":
            ok = body == state.hit_text[job_id] + "\n"
        else:
            ok = renders.setdefault((job_id, render), body) == body
        return None if ok else f"render {render}: wrong body"
    if kind == "cold":
        job_id = client.submit(arg)["job"]["id"]
        while True:
            status = client.status(job_id)["job"]["state"]
            if status in ("done", "failed"):
                break
            time.sleep(SERVE_POLL_S)
        if status != "done":
            return f"cold: {arg.describe()} failed"
        result = client.result(job_id)["result"]
        return None if result["analyze_text"] else "cold: empty result"
    data, meta_json, expected, _recs = state.uploads[arg]
    result = client.upload(data, meta_json=meta_json)["result"]
    return None if result["analyze_text"] == expected else "upload: wrong text"


def loop_serve(ctx: Context, state: ServeState) -> None:
    from repro.service.client import ServiceClient

    sp = ctx.spans
    size = len(SERVE_BLOCK)
    n_blocks = max(1, round(ctx.seconds * SERVE_RATE / size))
    ops = _serve_ops(state, n_blocks * size)
    latency = [0.0] * len(ops)
    late = [0.0] * len(ops)
    errors: List[Optional[str]] = ["not run"] * len(ops)
    renders: Dict[Tuple[str, str], str] = {}
    #: per block: due time of its first op, end, reference s per wall s
    starts = [0.0] * n_blocks
    ends = [0.0] * n_blocks
    scale = [0.0] * n_blocks
    done = {"blocks": 0}

    def between_blocks() -> None:
        # Every op of the block has completed, so the server is idle
        # while the calibration loop is timed.
        b = done["blocks"] - 1
        now = time.perf_counter()
        k = ctx.clock.scale()
        if b >= 0:
            ends[b], scale[b] = now, k
        if b + 1 < n_blocks:
            starts[b + 1] = time.perf_counter() + SERVE_GAP_S
        done["blocks"] += 1

    gate = threading.Barrier(SERVE_THREADS, action=between_blocks)

    def client_thread(index: int) -> None:
        with ServiceClient("127.0.0.1", state.server.port) as client:
            try:
                for b in range(n_blocks):
                    gate.wait()
                    for j in range(index, size, SERVE_THREADS):
                        due = starts[b] + j / SERVE_RATE
                        pause = due - time.perf_counter()
                        if pause > 0:
                            time.sleep(pause)
                        start = time.perf_counter()
                        i = b * size + j
                        kind, arg = ops[i]
                        try:
                            # The client's side of an op; the server's
                            # spans split it among the layers after the
                            # loop.
                            with sp.span(kind, "harness", op=i):
                                errors[i] = _serve_op(client, state, kind,
                                                      arg, renders)
                        except Exception as exc:  # a failed op is data
                            errors[i] = f"{kind}: {type(exc).__name__}: {exc}"
                            client.close()
                        end = time.perf_counter()
                        late[i] = (start - due) * 1e3
                        latency[i] = (end - due) * 1e3
                gate.wait()
            except threading.BrokenBarrierError:
                pass  # ops not run stay failed

    loop0 = time.perf_counter_ns()
    threads = [threading.Thread(target=client_thread, args=(j,))
               for j in range(SERVE_THREADS)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    loop1 = time.perf_counter_ns()
    wall_s = sum(e - s for s, e in zip(starts, ends) if e > s)

    with ServiceClient("127.0.0.1", state.server.port) as client:
        job0 = state.hit_ids[0]
        for render in RENDER_KINDS:
            ctx.digest.update(client.render(job0, render).encode())
        data, meta_json, _expected, _recs = state.uploads[0]
        text = client.upload(data, meta_json=meta_json)["result"][
            "analyze_text"]
        ctx.digest.update(text.encode())
        health = client.healthz()
    ctx.rss_mb = peak_rss_mb(state.server.proc.pid)
    # The server writes its spans when it exits.
    state.server.stop()
    spans = [s for s in read_jsonl(state.server.obs_path)["spans"]
             if loop0 <= s["start_ns"] < loop1]
    #: the server's top-level spans over the loop:
    #: name -> [count, wall s, reference CPU s]
    server: Dict[str, List[float]] = {}
    for s in spans:
        if s["depth"] == 0:
            b = max(0, bisect.bisect_right(starts, s["start_ns"] / 1e9) - 1)
            acc = server.setdefault(s["name"], [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += s["dur_ns"] / 1e9
            acc[2] += s["cpu_ns"] / 1e9 * scale[b]

    by_kind: Dict[str, List[float]] = {}
    good = upload_recs = 0
    for i, ((kind, arg), ms, err) in enumerate(zip(ops, latency, errors)):
        ctx.attempted += 1
        ctx.check(err is None, err or "")
        # A failed op misses the latency limit by definition.
        good += err is None and ms <= SERVE_LIMIT_MS
        by_kind.setdefault(kind, []).append(ms)
        ctx.sample(kind, op_ms=ms * scale[i // size])
        if kind == "upload":
            upload_recs += state.uploads[arg][3]
    # Uploads and cold jobs are rated by the CPU time the server's
    # worker thread spent on them (its `service.upload` and `service.job`
    # spans): the client's polling, the transport and the other threads
    # of both processes, all on one CPU, do not count.
    uploads = server.get("service.upload", [0, 0.0, 0.0])
    jobs = server.get("service.job", [0, 0.0, 0.0])
    ctx.count("upload", primary=(upload_recs, uploads[2]))
    ctx.count("cold", secondary=(jobs[0], jobs[2]))
    # Goodput at a fixed offered rate: wall time, not reference time.
    ctx.count("all", work=(good, wall_s))
    if not sp.enabled:
        return
    for layer, ns in _server_self_by_layer(spans).items():
        ctx.moves.append(("harness", layer, ns))
    busy = server.get("service.request", [0, 0.0])[1] + server.get(
        "service.job", [0, 0.0])[1]
    ctx.layer["service.busy_share"] = busy / wall_s
    for kind in ("hit", "render", "cold", "upload"):
        values = by_kind.get(kind, [])
        ctx.layer[f"serve.{kind}.p50_ms"] = percentile(values, 50)
        ctx.layer[f"serve.{kind}.p95_ms"] = percentile(values, 95)
    ctx.layer["serve.late.p99_ms"] = percentile(late, 99)
    for name in ("service.request", "service.job", "service.upload"):
        count, seconds = server.get(name, [0, 0.0])[:2]
        ctx.layer[f"{name}_ms.mean"] = seconds * 1e3 / count if count else 0.0
    lookups = health["cache"]["hits"] + health["cache"]["misses"]
    ctx.layer["service.cache_hit_ratio"] = (
        health["cache"]["hits"] / lookups if lookups else 0.0)
    ctx.layer["service.jobs_deduped"] = health["deduped"]


#: Layer of each span the server records (``repro.obs`` spans); other
#: names count as ``service``.
SERVER_SPAN_LAYERS = {
    "service.job": "exec", "run": "simkernel", "trace-decode": "ctf",
    "analysis": "core", "nesting": "core", "classify": "core",
    "preemption": "core", "service.upload": "stream",
    "stream.window": "stream",
}


def _server_self_by_layer(spans: List[dict]) -> Dict[str, int]:
    """Self time per layer of the server's spans.

    Within a thread, a span's self time is its duration minus its
    children's.  A request that waits for work on an executor thread
    (the top-level spans of renders and uploads) is charged only for
    the rest of its time.  Spec jobs run outside any request.
    """
    out: Dict[str, int] = {}
    open_at: Dict[Tuple[int, int], str] = {}
    for s in sorted(spans,
                    key=lambda s: (s["tid"], s["start_ns"], s["depth"])):
        layer = SERVER_SPAN_LAYERS.get(s["name"], "service")
        out[layer] = out.get(layer, 0) + s["dur_ns"]
        if s["depth"]:
            parent = open_at.get((s["tid"], s["depth"] - 1))
        elif s["name"] not in ("service.request", "service.job"):
            parent = "service"
        else:
            parent = None
        if parent is not None:
            out[parent] = out.get(parent, 0) - s["dur_ns"]
        open_at[(s["tid"], s["depth"])] = layer
    return out


WORKLOADS = {
    "record": (setup_record, loop_record),
    "analyze": (setup_analyze, loop_analyze),
    "sweep": (setup_sweep, loop_sweep),
    "serve": (setup_serve, loop_serve),
}
