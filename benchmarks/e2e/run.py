"""End-to-end benchmark of the lttng-noise pipeline.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload record --seed 1 --seconds 20
    python3 benchmarks/e2e/run.py --workload sweep --trace 1   # per layer
    python3 benchmarks/e2e/run.py --workload serve --quick     # smoke run

Workloads: ``record``, ``analyze``, ``sweep``, ``serve`` (see README.md).
Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics from a separate traced run, whose spans are also
written as a Chrome trace under ``.bench_work/traces/``.

The run is pinned to one CPU.  End-to-end times are in seconds of a
reference host (see ``harness.RefClock``); per-layer times are wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
GOLDEN = os.path.join(HERE, "golden.json")
DEFAULT_SEED = 1
SETUP_REPEATS = 3


def metric_units() -> tuple:
    """``({name: unit} end-to-end, {name: unit} per-layer)`` from
    BENCHMARK.json, which is the one list of metrics."""
    with open(BENCHMARK, "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in bench[kind]}
                 for kind in ("end_to_end", "per_layer"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("record", "analyze", "sweep", "serve"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured time (default 20, or 1 with --quick)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting the per-layer metrics")
    p.add_argument("--quick", action="store_true",
                   help="smoke run: one set-up and a 1 s loop")
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else 20.0
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def layer_metrics(ctx, harness, names, floor_ns: float,
                  calib: float) -> dict:
    """Per-layer values; the shares are of the time ops were in flight."""
    self_ns = ctx.spans.self_by_layer()
    for src, dst, ns in ctx.moves:
        self_ns[src] -= ns
        self_ns[dst] += ns
    wall = max(1, ctx.spans.op_ns())
    values = {name: 0.0 for name in names}
    values.update(ctx.layer)
    values["harness.floor_ns"] = floor_ns
    values["harness.calib_per_s"] = calib
    for layer in harness.LAYERS:
        values[f"share.{layer}"] = self_ns[layer] / wall
    # The benchmark's own time inside ops (timing, client, transport)
    # is not covered by any layer of the program.
    values["share.covered"] = sum(
        ns for layer, ns in self_ns.items() if layer != "harness") / wall
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    # The benchmark measures the program with its self-observation off.
    for key in [k for k in os.environ if k.startswith("LTTNG_NOISE_OBS")]:
        del os.environ[key]
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    end_to_end, per_layer = metric_units()

    import harness

    harness.pin_to_one_cpu()
    clock = harness.RefClock()
    t0 = time.perf_counter()
    import workloads
    import_s = (time.perf_counter() - t0) * clock.scale()

    floor_ns = harness.span_floor_ns()
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")

    work_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    spans = harness.SpanRecorder(False)
    ctx = workloads.Context(args.seed, args.seconds, spans, work_dir, SRC,
                            clock=clock)
    setup_fn, loop_fn = workloads.WORKLOADS[args.workload]
    state = None
    try:
        setups = []
        for _ in range(1 if args.quick else SETUP_REPEATS):
            if state is not None and hasattr(state, "close"):
                state.close()
            t0 = time.perf_counter()
            state = setup_fn(ctx)
            setups.append((time.perf_counter() - t0) * clock.scale())
        spans.enabled = bool(args.trace)
        loop_fn(ctx, state)
    finally:
        spans.enabled = False
        if state is not None and hasattr(state, "close"):
            state.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    digest = ctx.digest.hexdigest()
    print(f"digest {digest}")
    if args.seed == DEFAULT_SEED:
        with open(GOLDEN, "r", encoding="utf-8") as fh:
            golden = json.load(fh)
        ctx.check(golden.get(args.workload) == digest,
                  f"{args.workload}: digest differs from golden.json")

    calib = clock.median()
    print(f"# host speed: {calib / harness.REF_CALIB_PER_S:.3f} x reference "
          f"(median of {len(clock.samples)} calibration samples)")
    if args.trace:
        units = per_layer
        values = layer_metrics(ctx, harness, units, floor_ns, calib)
        path = os.path.join(WORK, "traces",
                            f"{args.workload}-seed{args.seed}.json")
        spans.write_chrome(path)
        print(f"# chrome trace: {os.path.relpath(path, ROOT)}")
    else:
        rate = harness.class_rate
        values = {
            "setup_s": import_s + statistics.median(setups),
            "rss_peak_mb": ctx.rss_mb or harness.peak_rss_mb(),
            "work_per_s": rate(ctx.totals.get("work", {})),
            "primary_per_s": rate(ctx.totals.get("primary", {})),
            "secondary_per_s": rate(ctx.totals.get("secondary", {})),
            "op_p50_ms": harness.class_mean(ctx.samples.get("op_ms", {}), 50),
        }
        units = end_to_end
        sizes = {k: len(v) for k, v in ctx.samples.get("op_ms", {}).items()}
        print(f"# ops per class: {sizes}")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(f"ops {ctx.attempted}")
    print(f"ops_failed {ctx.failed}")
    for err in ctx.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    correct = ctx.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, ctx.attempted),
        "failed": ctx.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
