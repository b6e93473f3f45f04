"""Command-line interface: record, analyze and export noise traces.

Mirrors the lttng-noise workflow end to end from a shell::

    # simulate a traced workload, producing trace + metadata sidecar
    lttng-noise record AMG --duration 2s --seed 7 -o amg

    # the paper-style report: per-event tables + Figure 3 breakdown
    lttng-noise report amg.lttnz

    # the synthetic OS noise chart, zoomed
    lttng-noise chart amg.lttnz --cpu 0 --top 10

    # export for Paraver / Matlab-style post-processing
    lttng-noise export amg.lttnz --paraver out/amg --csv out/amg.csv

    # FTQ validation (for FTQ recordings)
    lttng-noise record FTQ -o ftq && lttng-noise ftq-compare ftq.lttnz

Every subcommand accepts ``--meta FILE``; by default the ``.meta.json``
sidecar written by ``record`` is looked up next to the trace.

Every subcommand also accepts ``--obs PATH``: it enables the pipeline's
self-observability layer (:mod:`repro.obs`) for the duration of the command
and writes the collected telemetry to PATH on exit — a Chrome trace when
PATH ends in ``.json`` (open in ui.perfetto.dev), JSON lines otherwise.
``lttng-noise selftrace`` profiles the whole sim -> trace -> analyze stack
in one shot.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro import obs
from repro.core import (
    NoiseAnalysis,
    SyntheticNoiseChart,
    TraceMeta,
    find_ambiguous_pairs,
)
from repro.core.report import format_table, render_chart
from repro.tracing.ctf import Trace
from repro.util.units import fmt_ns, parse_duration
from repro.workloads import (
    DEFAULT_OP_NS,
    DEFAULT_QUANTUM_NS,
    FTQWorkload,
    SEQUOIA_PROFILES,
    SequoiaWorkload,
    ftq_output,
)


def _known_workload(name: str, given: str) -> bool:
    """True if ``name`` is FTQ or a Sequoia benchmark; otherwise print the
    choices, naming the workload as ``given``."""
    if name == "FTQ" or name in SEQUOIA_PROFILES:
        return True
    choices = ["FTQ"] + sorted(SEQUOIA_PROFILES)
    print(f"unknown workload {given!r}; choose from {choices}",
          file=sys.stderr)
    return False


def _load_meta(trace_path: str, meta_path: Optional[str]) -> TraceMeta:
    """``meta_path``, else the ``.meta.json`` sidecar next to the trace,
    else empty metadata."""
    if meta_path is None:
        candidate = os.path.splitext(trace_path)[0] + ".meta.json"
        meta_path = candidate if os.path.exists(candidate) else None
    return TraceMeta.from_file(meta_path) if meta_path else TraceMeta()


def _load(trace_path: str, meta_path: Optional[str]) -> "tuple[Trace, TraceMeta]":
    return Trace.from_file(trace_path), _load_meta(trace_path, meta_path)


def _analysis(args) -> NoiseAnalysis:
    trace, meta = _load(args.trace, args.meta)
    return NoiseAnalysis(trace, meta=meta)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_record(args) -> int:
    import dataclasses

    from repro.tracing.tracer import Tracer

    name = args.workload.upper()
    duration = parse_duration(args.duration)
    if not _known_workload(name, args.workload):
        return 2
    if name == "FTQ":
        workload = FTQWorkload()
    else:
        workload = SequoiaWorkload(name, nominal_ns=duration)
    node = workload.build_node(seed=args.seed, ncpus=args.ncpus)
    overrides = {}
    if args.hz is not None:
        overrides["hz"] = args.hz
    if args.nohz:
        overrides["nohz_idle"] = True
    if args.deprioritize_daemons:
        overrides["deprioritize_user_daemons"] = True
    if overrides:
        node = type(node)(dataclasses.replace(node.config, **overrides))
    tracer = Tracer(node)
    tracer.attach()
    workload.install(node)
    node.run(duration)
    trace = tracer.finish()
    base = args.output
    trace_path = base + ".lttnz"
    meta_path = base + ".meta.json"
    trace.to_file(trace_path, compress=args.compress)
    TraceMeta.from_node(node).to_file(meta_path)
    n = sum(p.n_records for p in trace.packets)
    print(f"recorded {name}: {n} records over {fmt_ns(trace.span_ns)} "
          f"-> {trace_path}, {meta_path}")
    return 0


def cmd_report(args) -> int:
    from repro.core.report import analysis_json, full_report

    analysis = _analysis(args)
    if args.json:
        import json as json_mod

        payload = analysis_json(analysis, noise_only=not args.all_events)
        print(json_mod.dumps(payload, indent=2))
        return 0
    if args.all_events:
        rows = analysis.stats_by_event(noise_only=False)
        print(format_table(
            "Per-event statistics, all activities (freq per CPU-second)", rows
        ))
        print()
    print(full_report(analysis, meta=analysis.meta))
    if args.phases:
        from repro.core.phases import phase_stats, split_phases

        phases = split_phases(analysis)
        if len(phases) > 1:
            print(f"\nphases ({len(phases)}):")
            rows = phase_stats(analysis, args.phases, phases)
            for phase, stats in rows:
                print(
                    f"  [{fmt_ns(phase.start - analysis.start_ts):>10s} - "
                    f"{fmt_ns(phase.end - analysis.start_ts):>10s}] "
                    f"{args.phases}: {stats.freq:8.1f} ev/s  "
                    f"avg {stats.avg:8.0f} ns"
                )
        else:
            print("\n(no phase markers in this trace)")
    # stdout stays the service's report render, byte for byte; the input
    # summary is a diagnostic.
    if analysis.records_processed:
        print(f"records: {analysis.records_processed}, span "
              f"{fmt_ns(analysis.span_ns)}, {analysis.ncpus} cpus",
              file=sys.stderr)
    return 0


def cmd_analyze(args) -> int:
    """Noise summary, batch or streaming (``--stream``).

    The streaming path never loads the trace: packets are decoded and
    analyzed one at a time, so memory stays bounded by the per-CPU packets
    buffered behind the watermark rather than by the trace length.  With ``--window-ns`` the per-window
    activity chunks are summarized as they are sealed.  Both paths produce
    identical numbers.
    """
    quanta = tuple(args.quantum_ns)
    if (args.window_ns or args.windows) and not args.stream:
        print("--window-ns/--windows need --stream", file=sys.stderr)
        return 2
    if args.stream:
        from repro.stream import StreamingAnalysis

        meta = _load_meta(args.trace, args.meta)

        def on_chunk(index: int, table) -> None:
            if not args.windows:
                return
            noise_ns = int(table.self_ns[table.is_noise].sum())
            print(f"  window {index:4d}: {len(table):6d} activities, "
                  f"noise {fmt_ns(noise_ns)}")

        analysis = StreamingAnalysis.analyze_file(
            args.trace,
            meta=meta,
            window_ns=args.window_ns,
            quanta=quanta,
            on_chunk=on_chunk if args.window_ns else None,
        )
        mode = (f"streaming, {analysis.windows_emitted} windows"
                if args.window_ns else "streaming")
        print(f"analyzed {args.trace} ({mode}): "
              f"{analysis.records_processed} records, "
              f"{analysis.activities_total} activities")
    else:
        analysis = _analysis(args)
    from repro.core.report import render_analysis_summary

    print(render_analysis_summary(
        analysis, quanta=quanta, all_events=args.all_events
    ))
    return 0


def cmd_chart(args) -> int:
    analysis = _analysis(args)
    chart = SyntheticNoiseChart(
        analysis, cpu=args.cpu, noise_only=not args.all_events
    )
    window = None
    if args.window:
        t0, t1 = (parse_duration(part) for part in args.window.split(":"))
        window = (analysis.start_ts + t0, analysis.start_ts + t1)
    print(render_chart(chart, args.top, window=window))
    if args.ambiguous:
        pairs = find_ambiguous_pairs(
            chart.interruptions, tolerance_ns=args.ambiguous
        )
        print(f"\n{len(pairs)} same-duration different-cause pairs "
              f"(tolerance {args.ambiguous} ns):")
        for pair in pairs[: args.top]:
            print("  " + pair.explain())
    return 0


def cmd_export(args) -> int:
    trace, meta = _load(args.trace, args.meta)
    analysis = NoiseAnalysis(trace, meta=meta)
    did = False
    if args.paraver:
        from repro.io import ParaverWriter

        writer = ParaverWriter(meta, analysis.ncpus, analysis.end_ts)
        files = writer.export(args.paraver, analysis.table)
        print("paraver: " + ", ".join(files))
        did = True
    if args.csv:
        from repro.io import activities_to_csv

        n = activities_to_csv(args.csv, analysis.table)
        print(f"csv: {n} rows -> {args.csv}")
        did = True
    if args.npz:
        from repro.io import export_npz

        export_npz(args.npz, analysis)
        print(f"npz: {args.npz}")
        did = True
    if args.chrome:
        from repro.io.chrometrace import analysis_trace_events
        from repro.obs.export import write_trace_events

        n = write_trace_events(args.chrome, analysis_trace_events(analysis))
        print(f"chrome: {n} events -> {args.chrome} "
              f"(open in chrome://tracing or ui.perfetto.dev)")
        did = True
    if not did:
        print("nothing to do: pass --paraver/--csv/--npz/--chrome",
              file=sys.stderr)
        return 2
    return 0


def cmd_compare(args) -> int:
    from repro.core import compare_profiles

    trace_a, meta_a = _load(args.baseline, args.meta_a)
    trace_b, meta_b = _load(args.candidate, args.meta_b)
    comparison = compare_profiles(
        NoiseAnalysis(trace_a, meta=meta_a),
        NoiseAnalysis(trace_b, meta=meta_b),
        threshold=args.threshold,
    )
    print(comparison.report())
    if args.fail_on_regression and comparison.regressions():
        return 1
    return 0


def cmd_fit(args) -> int:
    from repro.core import fit_noise_profile

    analysis = _analysis(args)
    profile = fit_noise_profile(analysis, min_events=args.min_events)
    print(profile.describe())
    profile.save(args.output)
    print(f"\nsaved {len(profile.sources)} sources -> {args.output}")
    return 0


def cmd_replay(args) -> int:
    from repro.core import NoiseProfile
    from repro.simkernel import ComputeNode, NodeConfig
    from repro.tracing.tracer import Tracer
    from repro.workloads.synthetic import SpinProgram

    profile = NoiseProfile.load(args.profile)
    duration = parse_duration(args.duration)
    node = ComputeNode(NodeConfig(ncpus=args.ncpus, seed=args.seed))
    tracer = Tracer(node)
    tracer.attach()
    for i in range(args.ncpus):
        node.spawn_rank(f"victim.{i}", i, SpinProgram())
    profile.replay_on(node)
    node.run(duration)
    trace = tracer.finish()
    base = args.output
    trace.to_file(base + ".lttnz")
    TraceMeta.from_node(node).to_file(base + ".meta.json")
    print(f"replayed {len(profile.sources)} sources for "
          f"{fmt_ns(duration)} -> {base}.lttnz")
    return 0


def cmd_timeline(args) -> int:
    from repro.core.report import MAX_TIMELINE_WIDTH, render_timeline

    if not 1 <= args.width <= MAX_TIMELINE_WIDTH:
        print(f"--width must be in 1..{MAX_TIMELINE_WIDTH}", file=sys.stderr)
        return 2
    analysis = _analysis(args)
    t0 = t1 = None
    if args.window:
        begin, end = (parse_duration(part) for part in args.window.split(":"))
        t0, t1 = analysis.start_ts + begin, analysis.start_ts + end
    print(render_timeline(
        analysis, args.width, t0, t1, noise_only=not args.all_events
    ))
    return 0


def _parse_seeds(text: str) -> List[int]:
    """``"8"`` -> seeds 0..7; ``"3:11"`` -> 3..10; ``"1,5,9"`` -> as listed."""
    text = text.strip()
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi)))
    if "," in text:
        return [int(part) for part in text.split(",") if part.strip()]
    return list(range(int(text)))


def _auto_shards(n_specs: int) -> int:
    """Default planner shard count: ~256 specs per shard, capped at 64."""
    return max(1, min(64, (n_specs + 255) // 256))


def _prepare_plan(args, specs) -> "tuple[Optional[object], Optional[str]]":
    """Create or load the sweep plan for ``--plan DIR``.

    Returns ``(plan, error)``; ``error`` is a user-facing message when the
    plan directory and the requested sweep disagree.
    """
    import repro
    from repro.exec import SweepPlan

    if SweepPlan.exists(args.plan):
        plan = SweepPlan.load(args.plan)
        if plan.version != repro.__version__:
            return None, (
                f"plan {args.plan} was written by version {plan.version}; "
                f"this is {repro.__version__} — re-plan in a fresh directory"
            )
        if not plan.matches(specs):
            return None, (
                f"plan {args.plan} covers a different spec set; "
                f"re-plan in a fresh directory or fix the arguments"
            )
        states = plan.journal().replay()
        if states and not args.resume:
            counts = plan.journal().counts()
            return None, (
                f"plan {args.plan} already has progress "
                f"({counts['done']} done); pass --resume to continue it"
            )
        return plan, None
    if args.resume:
        return None, f"--resume: no plan found in {args.plan}"
    shards = args.shards or _auto_shards(len(specs))
    plan = SweepPlan(specs, shards=shards, plan_dir=args.plan)
    plan.save()
    return plan, None


def _write_sweep_summary(path, name, duration, seeds, args, sweep,
                         plan) -> None:
    """``--summary-json``: the machine-readable execution summary."""
    import json as json_mod

    summary = {
        "workload": name,
        "duration_ns": duration,
        "seeds": len(seeds),
        "ncpus": args.ncpus,
    }
    summary.update(sweep.exec_stats)
    if plan is not None:
        summary["plan"] = {
            "dir": args.plan,
            "shards": plan.nshards,
            "journal": plan.journal().counts(),
            "issues": plan.verify_journal(),
        }
    if obs.enabled():
        # One machine-readable file for CI: the execution stats above
        # plus the full telemetry aggregate and sampler self-accounting.
        summary["obs"] = obs.aggregate()
        if _ACTIVE_SAMPLER is not None:
            summary["obs"]["sampler"] = _ACTIVE_SAMPLER.stats()
    with open(path, "w", encoding="utf-8") as fp:
        json_mod.dump(summary, fp, indent=2, sort_keys=True)
        fp.write("\n")
    print(f"summary: {path}", file=sys.stderr)


def cmd_sweep(args) -> int:
    from repro.core.sweep import SeedSweep
    from repro.exec import (
        LocalPoolBackend,
        RunSpec,
        SerialBackend,
        ShardedStore,
    )

    name = args.workload.upper()
    if not _known_workload(name, args.workload):
        return 2
    duration = parse_duration(args.duration)
    try:
        seeds = _parse_seeds(args.seeds)
    except ValueError:
        print(f"bad --seeds {args.seeds!r}: use a count (8), a range (0:8) "
              f"or a list (1,5,9)", file=sys.stderr)
        return 2
    if not seeds:
        print("empty seed set", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    if args.resume and not args.plan:
        print("--resume needs --plan DIR", file=sys.stderr)
        return 2
    if args.max_cache_bytes is not None and args.max_cache_bytes < 1:
        print("--max-cache-bytes must be positive", file=sys.stderr)
        return 2
    cache = None
    if not args.no_cache:
        cache = ShardedStore(args.cache_dir, max_bytes=args.max_cache_bytes)
    elif args.plan:
        print("--plan needs the result store; drop --no-cache",
              file=sys.stderr)
        return 2
    if args.clear_cache:
        if cache is None:
            print("--clear-cache needs the cache enabled", file=sys.stderr)
            return 2
        removed = cache.clear()
        print(f"cleared {removed} cached runs from {cache.root}",
              file=sys.stderr)

    plan = None
    if args.plan:
        specs = [
            RunSpec.make(name, duration, int(seed), args.ncpus)
            for seed in seeds
        ]
        plan, error = _prepare_plan(args, specs)
        if plan is None:
            print(error, file=sys.stderr)
            return 2
        print(plan.describe(), file=sys.stderr)

    # A pool only pays off with two workers and two distinct runs.
    workers = min(args.workers or os.cpu_count() or 1, len(set(seeds)))
    backend = (
        LocalPoolBackend(workers) if not args.serial and workers > 1
        else SerialBackend()
    )

    def progress(done, total, spec, cached, elapsed) -> None:
        how = "cache" if cached else f"{elapsed:.2f}s"
        print(f"[{done}/{total}] {spec.workload} seed {spec.seed}: {how}",
              file=sys.stderr)

    try:
        sweep = SeedSweep.run(
            name,
            duration,
            seeds,
            ncpus=args.ncpus,
            backend=backend,
            cache=cache,
            progress=progress,
            plan=plan,
        )
    except KeyboardInterrupt:
        if plan is not None:
            counts = plan.journal().counts()
            print(f"\ninterrupted: {counts['done']} done, "
                  f"{counts['running']} in flight — resume with the same "
                  f"arguments plus --resume", file=sys.stderr)
        else:
            print("\ninterrupted (no --plan: progress beyond the result "
                  "cache is lost)", file=sys.stderr)
        return 130
    print(sweep.exec_summary, file=sys.stderr)
    events = [e for e in (args.events or "").split(",") if e.strip()]
    print(f"{name}: {len(seeds)} seeds x {fmt_ns(duration)} "
          f"on {args.ncpus} cpus")
    print(sweep.summary_table(events))
    if cache is not None:
        print(cache.describe(), file=sys.stderr)
    if args.summary_json:
        _write_sweep_summary(args.summary_json, name, duration, seeds, args,
                             sweep, plan)
    return 0


def cmd_selftrace(args) -> int:
    """Profile the pipeline itself: one full sim -> trace -> analyze pass
    with the obs layer on, exported as a Chrome trace of *our own* phases.
    """
    import json as json_mod
    import tempfile

    from repro.exec import RunSpec, ShardedStore
    from repro.util.units import MSEC

    config = {}
    if args.config:
        with open(args.config) as fp:
            config = json_mod.load(fp)
    name = str(args.workload or config.get("workload", "FTQ")).upper()
    if not _known_workload(name, name):
        return 2
    duration = parse_duration(
        str(args.duration or config.get("duration", "1s"))
    )
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    ncpus = args.ncpus or int(config.get("ncpus", 2))

    obs.enable()
    spec = RunSpec.make(name, duration, seed, ncpus)
    hb = obs.Heartbeat("selftrace", total=5, interval_s=0.0)
    with obs.span("selftrace", workload=name, seed=seed):
        with obs.span("simulate"):
            trace, meta = spec.execute()
        hb.tick(1, "simulate")

        # Exercise the result cache against a throwaway directory so the
        # profile shows both sides: one cold miss + put, one warm hit
        # (which decodes the entry back from disk).
        with tempfile.TemporaryDirectory(prefix="lttng-noise-st-") as tmp:
            with obs.span("cache-roundtrip"):
                cache = ShardedStore(tmp)
                cache.get(spec)
                cache.put(spec, trace, meta)
                hit = cache.get(spec)
                if hit is not None:
                    trace, meta = hit
        hb.tick(2, "cache round-trip")

        with obs.span("serialize"):
            blob = trace.to_bytes(compress=True)
            trace = Trace.from_bytes(blob)
        hb.tick(3, "serialize")

        # NoiseAnalysis emits the analysis span with the engine's
        # trace-decode/nesting/preemption/classify spans nested inside.
        analysis = NoiseAnalysis(trace, meta=meta)
        hb.tick(4, "analyze")

        with obs.span("report"):
            analysis.stats_by_event()
            analysis.breakdown_ns()
            analysis.per_cpu_noise_ns()
            analysis.noise_timeline(int(10 * MSEC))
            analysis.total_noise_ns()
        hb.tick(5, "report")
    hb.finish("done")

    snap = obs.snapshot()
    n = obs.write_chrome_trace(args.out, snap)
    if args.jsonl:
        obs.write_jsonl(args.jsonl, snap)
        print(f"jsonl: {args.jsonl}", file=sys.stderr)

    agg = obs.aggregate(snap)
    print(f"selftrace {name}: {fmt_ns(duration)} simulated on {ncpus} cpus "
          f"(seed {seed})")
    print("phases:")
    for phase in ("selftrace", "simulate", "cache-roundtrip", "serialize",
                  "trace-decode", "nesting", "preemption", "classify",
                  "analysis", "report"):
        agg_span = agg["spans"].get(phase)
        if agg_span:
            print(f"  {phase:<16s} {agg_span['total_ms']:9.2f} ms "
                  f"(x{agg_span['count']})")
    print("counters:")
    for cname in ("sim.events", "tracing.records_written",
                  "tracing.records_lost", "decode.records",
                  "classify.activities", "cache.hit", "cache.miss"):
        for key, value in sorted(agg["counters"].items()):
            if key == cname or key.startswith(cname + "{"):
                print(f"  {key:<28s} {value}")
    print(f"chrome: {n} events -> {args.out} (open in ui.perfetto.dev)")
    return 0


def cmd_check(args) -> int:
    """Run the noiselint repo-contract static analysis (see
    docs/static-analysis.md)."""
    from repro.check.incremental import lint_paths
    from repro.check.report import render_json, render_rule_list, render_text

    if args.list_rules:
        print(render_rule_list())
        return 0
    select = [r for r in (args.select or "").split(",") if r.strip()]
    ignore = [r for r in (args.ignore or "").split(",") if r.strip()]
    fmt = "json" if args.json else args.format
    try:
        result = lint_paths(
            args.paths or ["src"],
            select=select or None,
            ignore=ignore or None,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            no_cache=args.no_cache,
        )
    except FileNotFoundError as exc:
        print(f"no such path: {exc}", file=sys.stderr)
        return 2
    if fmt == "json":
        print(render_json(result))
    elif fmt == "sarif":
        from repro.check.sarif import render_sarif

        print(render_sarif(result))
    else:
        print(render_text(result, verbose=args.verbose))
        if result.files_reused or result.files_analyzed:
            print(
                f"({result.files_reused} records from cache, "
                f"{result.files_analyzed} analyzed)",
                file=sys.stderr,
            )
    return 1 if result.failed else 0


def cmd_obs_tail(args) -> int:
    """Live dashboard over a running (or finished) sweep plan directory."""
    from repro.obs.tools import tail

    try:
        return tail(
            args.plan_dir,
            once=args.once,
            interval_s=args.interval,
        )
    except FileNotFoundError as exc:
        print(f"obs tail: no plan in {args.plan_dir} ({exc})",
              file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("", file=sys.stderr)
        return 130


def cmd_obs_export(args) -> int:
    """Re-target a saved telemetry capture (``--obs`` JSON lines)."""
    from repro.obs.export import (
        prometheus_text,
        read_jsonl,
        write_chrome_trace,
        write_jsonl,
    )

    try:
        snap = read_jsonl(args.input)
    except (OSError, ValueError) as exc:
        print(f"obs export: {exc}", file=sys.stderr)
        return 2
    if args.format == "prom":
        text = prometheus_text(snap)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fp:
                fp.write(text)
            print(f"prom: {args.output}", file=sys.stderr)
        else:
            sys.stdout.write(text)
        return 0
    if not args.output:
        print(f"obs export --format {args.format} needs -o FILE",
              file=sys.stderr)
        return 2
    if args.format == "chrome":
        n = write_chrome_trace(args.output, snap)
        print(f"chrome: {n} events -> {args.output} "
              f"(open in ui.perfetto.dev)", file=sys.stderr)
    else:
        n = write_jsonl(args.output, snap)
        print(f"jsonl: {n} lines -> {args.output}", file=sys.stderr)
    return 0


def cmd_obs_diff(args) -> int:
    """Compare two telemetry files; exit 1 when a gated metric regressed."""
    import json as json_mod

    from repro.obs.tools import diff_files, format_diff

    try:
        rows, code = diff_files(
            args.baseline, args.candidate, threshold=args.threshold
        )
    except (OSError, ValueError) as exc:
        print(f"obs diff: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json_mod.dumps(
            {"regressed": code != 0, "rows": rows}, indent=2,
            default=str,
        ))
    else:
        print(format_diff(rows))
    return code


def cmd_ftq_compare(args) -> int:
    analysis = _analysis(args)
    comparison = ftq_output(
        analysis,
        cpu=args.cpu,
        quantum_ns=parse_duration(args.quantum),
        op_ns=parse_duration(args.op),
    )
    print(f"quanta: {len(comparison.ftq_noise_ns)}  "
          f"(quantum {fmt_ns(comparison.quantum_ns)}, "
          f"op {fmt_ns(comparison.op_ns)})")
    print(f"correlation:        {comparison.correlation():.4f}")
    print(f"mean overestimate:  {comparison.mean_overestimate_ns():.1f} ns")
    print(f"mean abs error:     {comparison.mean_abs_error_ns():.1f} ns")
    return 0


def cmd_serve(args) -> int:
    """Run the analysis service until SIGTERM/SIGINT (docs/service.md)."""
    import asyncio

    from repro.service.handlers import run_server
    from repro.service.http import parse_hostport

    try:
        host, port = parse_hostport(args.listen, 8787)
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    # The service self-observes unconditionally: /metrics, per-request
    # spans and the service.* gauges all read the obs registry.
    if not obs.enabled():
        obs.enable()

    def announce(server) -> None:
        print(f"listening on http://{server.host}:{server.port} "
              f"(jobs: {args.max_concurrency} concurrent, store: "
              f"{args.store or 'temporary'})",
              file=sys.stderr, flush=True)

    served, counts = asyncio.run(run_server(
        host=host,
        port=port,
        store_root=args.store,
        max_concurrency=args.max_concurrency,
        max_store_bytes=args.max_store_bytes,
        use_pool=not args.serial,
        announce=announce,
    ))
    jobs = ", ".join(f"{k}={v}" for k, v in counts.items() if v)
    print(f"drained: {served} requests served, jobs {jobs or 'none'}",
          file=sys.stderr)
    return 0


def cmd_submit(args) -> int:
    """Submit work to a running ``lttng-noise serve`` and print the
    analysis (bit-identical to ``lttng-noise analyze`` on the same run).
    """
    from repro.exec.spec import RunSpec
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.http import parse_hostport

    if (args.workload is None) == (args.trace is None):
        print("submit: pass a WORKLOAD or --trace FILE (not both)",
              file=sys.stderr)
        return 2
    try:
        host, port = parse_hostport(args.server, 8787)
    except ValueError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 2
    import json as json_mod

    try:
        with ServiceClient(host, port, timeout_s=args.timeout) as client:
            if args.trace is not None:
                out = client.upload_file(args.trace, meta_path=args.meta)
                job, result = out["job"], out["result"]
                print(f"job {job['id']}: {job['state']} "
                      f"in {job['elapsed_s']:.3f}s", file=sys.stderr)
                if args.json:
                    print(json_mod.dumps(result, indent=2, sort_keys=True))
                else:
                    print(result["analyze_text"])
                return 0
            spec = RunSpec.make(
                args.workload, parse_duration(args.duration),
                args.seed, args.ncpus,
            )
            submitted = client.submit(spec)
            job = submitted["job"]
            print(f"job {job['id'][:12]}… "
                  f"{'created' if submitted['created'] else 'deduped'}",
                  file=sys.stderr)
            if args.no_wait:
                print(job["id"])
                return 0
            final = client.wait(job["id"], timeout_s=args.timeout)
            cached = " (cached)" if final.get("cached") else ""
            print(f"job {job['id'][:12]}… {final['state']}{cached} "
                  f"in {final['elapsed_s']:.3f}s", file=sys.stderr)
            if final["state"] == "failed":
                print(f"error: {final.get('error')}", file=sys.stderr)
                return 1
            if args.json:
                result = client.result(job["id"])["result"]
                print(json_mod.dumps(result, indent=2, sort_keys=True))
            else:
                body = client.render(job["id"], args.render)
                text = (body if isinstance(body, str)
                        else body.decode("utf-8", errors="replace"))
                print(text, end="" if text.endswith("\n") else "\n")
            return 0
    except ServiceError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError, TimeoutError) as exc:
        print(f"submit: cannot reach {host}:{port}: {exc}",
              file=sys.stderr)
        return 1


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lttng-noise",
        description="quantitative per-event OS noise analysis "
        "(IPDPS 2011 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("record", help="simulate a traced workload")
    p.add_argument("workload", help="FTQ or a Sequoia benchmark name")
    p.add_argument("--duration", default="2s", help="simulated time (e.g. 2s)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ncpus", type=int, default=8)
    p.add_argument("--hz", type=int, help="override the tick frequency")
    p.add_argument("--nohz", action="store_true",
                   help="tickless idle (NO_HZ)")
    p.add_argument("--deprioritize-daemons", action="store_true",
                   help="run user daemons below application ranks")
    p.add_argument("--compress", action="store_true",
                   help="zlib-compress trace packets")
    p.add_argument("-o", "--output", default="trace", help="output basename")
    p.set_defaults(fn=cmd_record)

    p = sub.add_parser("report", help="per-event tables + noise breakdown")
    p.add_argument("trace")
    p.add_argument("--meta")
    p.add_argument("--all-events", action="store_true",
                   help="include non-noise activities")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output (for CI pipelines)")
    p.add_argument("--phases", metavar="EVENT",
                   help="also show per-phase stats for one event "
                        "(phases come from workload markers)")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser(
        "analyze",
        help="noise summary; --stream analyzes incrementally "
             "in bounded memory",
    )
    p.add_argument("trace")
    p.add_argument("--meta")
    p.add_argument("--stream", action="store_true",
                   help="decode and analyze packet by packet instead of "
                        "loading the whole trace")
    p.add_argument("--window-ns", type=int, metavar="NS",
                   help="streaming window size: seal and summarize "
                        "activity chunks every NS of trace time")
    p.add_argument("--quantum-ns", type=int, action="append", default=[],
                   metavar="NS",
                   help="also build a noise timeline at this quantum "
                        "(repeatable)")
    p.add_argument("--windows", action="store_true",
                   help="print one line per sealed window (needs "
                        "--stream --window-ns)")
    p.add_argument("--all-events", action="store_true",
                   help="include non-noise activities in the table")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("chart", help="the synthetic OS noise chart")
    p.add_argument("trace")
    p.add_argument("--meta")
    p.add_argument("--cpu", type=int)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--window", help="zoom, e.g. '100ms:150ms' from trace start")
    p.add_argument("--all-events", action="store_true")
    p.add_argument("--ambiguous", type=int, metavar="TOL_NS",
                   help="also list same-duration different-cause pairs")
    p.set_defaults(fn=cmd_chart)

    p = sub.add_parser("export", help="Paraver / CSV / NPZ export")
    p.add_argument("trace")
    p.add_argument("--meta")
    p.add_argument("--paraver", metavar="BASENAME")
    p.add_argument("--csv", metavar="FILE")
    p.add_argument("--npz", metavar="FILE")
    p.add_argument("--chrome", metavar="FILE",
                   help="Chrome trace-event JSON (Perfetto)")
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser(
        "compare", help="diff two noise profiles (kernel A vs kernel B)"
    )
    p.add_argument("baseline")
    p.add_argument("candidate")
    p.add_argument("--meta-a")
    p.add_argument("--meta-b")
    p.add_argument("--threshold", type=float, default=0.10,
                   help="relative budget change counted as a real move")
    p.add_argument("--fail-on-regression", action="store_true",
                   help="exit 1 if any event's noise budget regressed")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser(
        "fit", help="fit a replayable noise profile from a trace"
    )
    p.add_argument("trace")
    p.add_argument("--meta")
    p.add_argument("--min-events", type=int, default=5)
    p.add_argument("-o", "--output", default="profile.npz")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser(
        "replay", help="replay a fitted noise profile on a clean node"
    )
    p.add_argument("profile")
    p.add_argument("--duration", default="2s")
    p.add_argument("--ncpus", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default="replayed")
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser(
        "timeline", help="ASCII execution-trace view (Fig. 5/7 style)"
    )
    p.add_argument("trace")
    p.add_argument("--meta")
    p.add_argument("--window", help="zoom, e.g. '100ms:150ms' from start")
    p.add_argument("--width", type=int, default=100)
    p.add_argument("--all-events", action="store_true")
    p.set_defaults(fn=cmd_timeline)

    p = sub.add_parser(
        "sweep",
        help="seed sweep with parallel fan-out and result caching",
    )
    p.add_argument("workload", help="FTQ or a Sequoia benchmark name")
    p.add_argument("--duration", default="500ms",
                   help="simulated time per run (e.g. 500ms)")
    p.add_argument("--seeds", default="8",
                   help="seed set: a count (8), a range (0:8) or a list "
                        "(1,5,9)")
    p.add_argument("--ncpus", type=int, default=8)
    p.add_argument("--workers", type=int,
                   help="process-pool size (default: all cores)")
    p.add_argument("--serial", action="store_true",
                   help="run in-process instead of fanning out "
                        "(results are bit-identical)")
    p.add_argument("--events", default="timer_interrupt",
                   help="comma-separated events for the summary table")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="result cache location (default: "
                        "$LTTNG_NOISE_CACHE or ~/.cache/lttng-noise)")
    p.add_argument("--no-cache", action="store_true",
                   help="always re-simulate; write nothing to disk")
    p.add_argument("--clear-cache", action="store_true",
                   help="empty the cache before running")
    p.add_argument("--max-cache-bytes", type=int, metavar="BYTES",
                   help="result-store size budget; least-recently-used "
                        "entries are evicted past it")
    p.add_argument("--plan", metavar="DIR",
                   help="persist a sharded, journaled sweep plan under DIR "
                        "so the sweep survives interruption "
                        "(docs/sweep-orchestration.md)")
    p.add_argument("--resume", action="store_true",
                   help="continue the plan in --plan DIR; completed runs "
                        "are served from the result store")
    p.add_argument("--shards", type=int, metavar="N",
                   help="planner shard count (default: ~256 specs/shard)")
    p.add_argument("--summary-json", metavar="PATH",
                   help="write a machine-readable execution summary "
                        "(runs, cache hits/misses, failures, wall seconds) "
                        "for CI consumption")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "check",
        help="noiselint: repo-contract static analysis "
             "(determinism, ns-exactness, hot loops, trace schema)",
    )
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to check (default: src)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report (same as --format json; "
                        "schema: docs/static-analysis.md)")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text",
                   help="report format; sarif emits a SARIF 2.1.0 "
                        "document for code-scanning UIs")
    p.add_argument("--jobs", nargs="?", type=int, const=0, metavar="N",
                   help="analyze cold files in N worker processes "
                        "(bare --jobs: one per CPU)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="lint-record cache location (default: "
                        "$LTTNG_NOISE_CACHE/lint)")
    p.add_argument("--no-cache", action="store_true",
                   help="re-analyze every file; neither read nor write "
                        "the record cache")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.add_argument("--select", metavar="RULES",
                   help="comma-separated rule ids to run (default: all)")
    p.add_argument("--ignore", metavar="RULES",
                   help="comma-separated rule ids to skip")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also list suppressed violations")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser(
        "serve",
        help="noise-analysis-as-a-service: async HTTP/JSON server over "
             "the result store (docs/service.md)",
    )
    p.add_argument("--listen", default="127.0.0.1:8787", metavar="HOST:PORT",
                   help="bind address (default: 127.0.0.1:8787; port 0 "
                        "picks a free port, printed on stderr)")
    p.add_argument("--store", metavar="DIR",
                   help="sharded result store shared across requests and "
                        "server restarts (default: a temporary directory)")
    p.add_argument("--max-concurrency", type=int, default=4, metavar="N",
                   help="jobs analyzed at once; the rest queue (default: 4)")
    p.add_argument("--max-store-bytes", type=int, metavar="BYTES",
                   help="store size budget with LRU eviction")
    p.add_argument("--serial", action="store_true",
                   help="run cold jobs in-process instead of a worker "
                        "process (results are bit-identical)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a run spec or trace upload to a running serve "
             "instance and print the analysis",
    )
    p.add_argument("workload", nargs="?",
                   help="FTQ or a Sequoia benchmark name")
    p.add_argument("--duration", default="500ms",
                   help="simulated time (e.g. 500ms)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ncpus", type=int, default=8)
    p.add_argument("--trace", metavar="FILE",
                   help="stream this recorded trace up for analysis "
                        "instead of submitting a spec")
    p.add_argument("--meta", metavar="FILE",
                   help="with --trace: metadata sidecar to send along "
                        "(default: the .meta.json next to the trace)")
    p.add_argument("--server", default="127.0.0.1:8787",
                   metavar="HOST:PORT")
    p.add_argument("--render", default="analyze",
                   choices=("analyze", "report", "chart", "timeline"),
                   help="text render to print (default: analyze)")
    p.add_argument("--json", action="store_true",
                   help="print the raw result payload instead of a render")
    p.add_argument("--no-wait", action="store_true",
                   help="print the job id and exit without polling")
    p.add_argument("--timeout", type=float, default=120.0, metavar="S",
                   help="poll/connect timeout in seconds (default: 120)")
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("ftq-compare", help="FTQ vs trace validation")
    p.add_argument("trace")
    p.add_argument("--meta")
    p.add_argument("--cpu", type=int, default=0)
    p.add_argument("--quantum", default=str(DEFAULT_QUANTUM_NS))
    p.add_argument("--op", default=str(DEFAULT_OP_NS))
    p.set_defaults(fn=cmd_ftq_compare)

    p = sub.add_parser(
        "selftrace",
        help="profile the pipeline itself (sim -> trace -> analyze) "
             "into a Chrome trace",
    )
    p.add_argument("--config", metavar="FILE",
                   help="JSON with workload/duration/seed/ncpus "
                        "(flags override; see examples/ftq_selftrace.json)")
    p.add_argument("--workload",
                   help="FTQ or a Sequoia benchmark name (default: FTQ)")
    p.add_argument("--duration",
                   help="simulated time for the profiled run (default: 1s)")
    p.add_argument("--seed", type=int)
    p.add_argument("--ncpus", type=int)
    p.add_argument("--out", default="selftrace.json",
                   help="Chrome-trace output (default: selftrace.json)")
    p.add_argument("--jsonl", metavar="FILE",
                   help="also dump the raw telemetry as JSON lines")
    p.set_defaults(fn=cmd_selftrace)

    p = sub.add_parser(
        "obs",
        help="telemetry tools: live sweep dashboard, format export, "
             "regression diff (docs/observability.md)",
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    op = obs_sub.add_parser(
        "tail",
        help="follow a sweep's plan directory: progress bar, rate, ETA, "
             "cache ratio, per-worker sampler lanes",
    )
    op.add_argument("plan_dir", help="the sweep's --plan DIR")
    op.add_argument("--once", action="store_true",
                    help="render one frame and exit (scripts / CI)")
    op.add_argument("--interval", type=float, default=0.5, metavar="S",
                    help="poll period in seconds (default: 0.5)")
    op.set_defaults(fn=cmd_obs_tail)

    op = obs_sub.add_parser(
        "export",
        help="convert a saved --obs JSON-lines capture to another format",
    )
    op.add_argument("input", help="a --obs telemetry capture (JSON lines)")
    op.add_argument("--format", choices=("prom", "jsonl", "chrome"),
                    default="prom",
                    help="prom: Prometheus text exposition (default); "
                         "jsonl: normalized JSON lines; chrome: Perfetto")
    op.add_argument("-o", "--output", metavar="FILE",
                    help="output file (prom defaults to stdout)")
    op.set_defaults(fn=cmd_obs_export)

    op = obs_sub.add_parser(
        "diff",
        help="compare two telemetry files; exit 1 on regression "
             "(the baseline's gates section sets per-metric policy)",
    )
    op.add_argument("baseline", help="baseline capture or trajectory JSON")
    op.add_argument("candidate", help="candidate capture or trajectory JSON")
    op.add_argument("--threshold", type=float, default=0.2,
                    help="relative tolerance for ungated metrics "
                         "(default: 0.2, lower-is-better)")
    op.add_argument("--json", action="store_true",
                    help="machine-readable rows instead of the table")
    op.set_defaults(fn=cmd_obs_diff)

    # Global observability switches, valid after any subcommand.
    for sp in sub.choices.values():
        sp.add_argument(
            "--obs", metavar="PATH",
            help="collect pipeline telemetry and write it to PATH on exit "
                 "(Chrome trace if PATH ends in .json, else JSON lines)",
        )
        sp.add_argument(
            "--obs-sample-ms", type=int, metavar="MS",
            help="with --obs: sample the metrics registry every MS "
                 "milliseconds into a time-series spill (workers "
                 "inherit the period and sample themselves)",
        )

    return parser


#: The CLI invocation's sampler, when ``--obs-sample-ms`` is active —
#: summary writers embed its stats without threading it through args.
_ACTIVE_SAMPLER: "Optional[obs.Sampler]" = None


def main(argv: Optional[List[str]] = None) -> int:
    global _ACTIVE_SAMPLER

    args = build_parser().parse_args(argv)
    obs_path = getattr(args, "obs", None)
    sample_ms = getattr(args, "obs_sample_ms", None)
    if sample_ms is not None:
        if not obs_path:
            print("--obs-sample-ms needs --obs PATH", file=sys.stderr)
            return 2
        if sample_ms < 1:
            print("--obs-sample-ms must be >= 1", file=sys.stderr)
            return 2
    sampler = None
    if obs_path:
        obs.enable()
        if sample_ms:
            from repro.obs.tools import SAMPLES_DIRNAME

            # Spill next to the plan when there is one (obs tail follows
            # that directory); otherwise beside the capture file.
            plan_dir = getattr(args, "plan", None)
            spill = (
                os.path.join(plan_dir, SAMPLES_DIRNAME) if plan_dir
                else obs_path + ".samples"
            )
            sampler = obs.Sampler(
                period_s=sample_ms / 1000.0, spill_dir=spill, label="cli"
            )
            _ACTIVE_SAMPLER = sampler
            sampler.start(export_env=True)
    try:
        return args.fn(args)
    finally:
        if sampler is not None:
            sampler.stop()
            stats = sampler.stats()
            print(f"obs: {stats['samples']} samples "
                  f"@ {stats['period_ms']}ms -> {sampler.spill_dir}",
                  file=sys.stderr)
            _ACTIVE_SAMPLER = None
        if obs_path:
            snap = obs.snapshot()
            if obs_path.endswith(".json"):
                obs.write_chrome_trace(obs_path, snap)
            else:
                obs.write_jsonl(obs_path, snap)
            print(f"obs: telemetry -> {obs_path}", file=sys.stderr)
        if obs_path or args.fn is cmd_selftrace:
            # Leave the process clean for the next in-process main() call
            # (tests drive the CLI this way).
            obs.disable()
            obs.reset()


if __name__ == "__main__":
    sys.exit(main())
