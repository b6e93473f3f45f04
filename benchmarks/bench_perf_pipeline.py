"""Performance of the pipeline itself: simulation and analysis throughput.

Not a paper experiment — engineering numbers for this implementation:
how fast the substrate simulates (events/second of wall time) and how fast
the analyzer chews records.  These run with multiple rounds (they are the
only benches here where pytest-benchmark's statistics mean something).
"""

import os
import sys
import time

import numpy as np
import pytest

from repro.core import NoiseAnalysis, TraceMeta
from repro.stream import StreamingAnalysis
from repro.util.units import MSEC, SEC
from repro.workloads import SequoiaWorkload

from trajectory import record_metric

# The frozen per-object oracle lives with the tests that use it.
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests")
)
from reference import ReferenceAnalysis  # noqa: E402


def test_perf_simulation(benchmark):
    """Simulate 500 ms of AMG (the event-heaviest workload) per round.

    ``extra_info`` carries the absolute cost: records and engine events
    per run, and wall ns per record over the rounds (min and median)."""
    round_ns = []
    events = []

    def run():
        t0 = time.perf_counter_ns()
        workload = SequoiaWorkload("AMG", nominal_ns=500 * MSEC)
        node, trace = workload.run_traced(500 * MSEC, seed=13)
        round_ns.append(time.perf_counter_ns() - t0)
        events.append(node.engine.events_executed)
        return sum(p.n_records for p in trace.packets)

    records = benchmark.pedantic(run, rounds=3, iterations=1)
    per_record = sorted(ns / records for ns in round_ns)
    benchmark.extra_info.update(
        records=records,
        events_executed=events[-1],
        ns_per_record_min=round(per_record[0], 1),
        ns_per_record_median=round(per_record[len(per_record) // 2], 1),
    )
    assert records > 10_000


@pytest.fixture(scope="module")
def amg_trace():
    workload = SequoiaWorkload("AMG", nominal_ns=1 * SEC)
    node, trace = workload.run_traced(1 * SEC, seed=13)
    return trace, TraceMeta.from_node(node)


def _per_record_rounds(benchmark, fn, records, rounds):
    """Time ``fn`` once per round and put its absolute cost in
    ``extra_info``: the record count, and wall ns per record (min, median,
    p95 over the rounds) plus the fastest round in ms."""
    round_ns = []

    def run():
        t0 = time.perf_counter_ns()
        result = fn()
        round_ns.append(time.perf_counter_ns() - t0)
        return result

    result = benchmark.pedantic(run, rounds=rounds, iterations=1)
    benchmark.extra_info.update(
        records=records,
        **_ns_per_record(round_ns, records),
        ms_min=round(min(round_ns) / 1e6, 2),
    )
    return result


def _ns_per_record(round_ns, records, prefix="", unit="record"):
    """Wall ns per record (or other ``unit``) over the rounds: min,
    median and p95."""
    per_record = sorted(ns / records for ns in round_ns)
    p95 = per_record[max(0, -(-len(per_record) * 95 // 100) - 1)]
    return {
        f"{prefix}ns_per_{unit}_min": round(per_record[0], 1),
        f"{prefix}ns_per_{unit}_median": round(
            per_record[len(per_record) // 2], 1),
        f"{prefix}ns_per_{unit}_p95": round(p95, 1),
    }


def test_perf_analysis(benchmark, amg_trace):
    """Batch ``NoiseAnalysis`` construction on the 1 s AMG trace: the one
    engine pass (nesting, preemption, classification) and the canonical
    reorder of its rows; no query and no object view."""
    trace, meta = amg_trace
    records = sum(p.n_records for p in trace.packets)
    analysis = _per_record_rounds(
        benchmark, lambda: NoiseAnalysis(trace, meta=meta), records, 20
    )
    assert len(analysis.table) > 10_000


def _engine_blocks(**kwargs):
    """A ``StreamingAnalysis.from_trace`` that also counts the engine's
    ``process_to`` calls (its blocks); returns ``(analysis, blocks)``."""
    from repro.core.engine import StreamEngine

    blocks = [0]
    process_to = StreamEngine.process_to

    def counted(self, boundary):
        blocks[0] += 1
        return process_to(self, boundary)

    StreamEngine.process_to = counted
    try:
        return StreamingAnalysis.from_trace(**kwargs), blocks[0]
    finally:
        StreamEngine.process_to = process_to


def test_perf_analysis_1ms_windows(benchmark, amg_trace):
    """``StreamingAnalysis`` over the AMG trace with ``window_ns`` = 1 ms:
    the default engine schedule plus 1001 window cuts of its rows.

    ``extra_info`` also carries ``windows_emitted`` and the engine block
    count, which must equal the window-less stream's: windows cut the
    output, not the engine's blocks."""
    trace, meta = amg_trace
    records = sum(p.n_records for p in trace.packets)
    def stream():
        return StreamingAnalysis.from_trace(trace, meta=meta, window_ns=MSEC)

    result = _per_record_rounds(benchmark, stream, records, 5)
    assert result.records_processed == records
    _, blocks = _engine_blocks(trace=trace, meta=meta, window_ns=MSEC)
    _, plain_blocks = _engine_blocks(trace=trace, meta=meta)
    benchmark.extra_info.update(
        windows_emitted=result.windows_emitted, engine_blocks=blocks,
    )
    assert blocks == plain_blocks


def test_perf_match_and_fold(benchmark, amg_trace):
    """The two analysis kernels that sort nothing they need not, on the
    1 s AMG trace: ENTRY/EXIT matching of the batch engine's one block
    (``_match_frames_vectorized``, per frame depth) and the streaming
    moments fold of its finished table (``fold_moments``, exact sums of
    squares in numpy).

    One round runs each kernel once, so they take turns on the host.
    ``extra_info`` carries matcher ns per ENTRY/EXIT token and fold ns
    per folded row (min, median, p95).  Both results must equal their
    references byte for byte: the sequential stack walk's table and open
    frames, and the Python-int loop's moments."""
    from reference import fold_moments_ref
    from repro.core.engine import StreamEngine, is_window
    from repro.core.nesting import (
        ActivityStackWalker, _match_frames_vectorized, _match_frames_walk,
    )
    from repro.core.analysis import fold_moments
    from repro.tracing.events import FIRST_POINT_EVENT

    trace, meta = amg_trace
    engine = StreamEngine(meta, on_rows=lambda rows, seq: None)
    for packet in sorted(trace.packets, key=lambda p: p.begin_ts):
        engine.feed_packet(packet)
    block = engine.process_to(None)
    tokens = block[block["event"] < FIRST_POINT_EVENT]
    rows = NoiseAnalysis(trace, meta=meta).table.data
    rows = rows[~rows["truncated"]]
    fold_args = (
        rows["event"], np.where(is_window(rows["event"]), rows["pid"], -1),
        rows["is_noise"], rows["self_ns"],
    )

    round_ns = {"matcher": [], "fold": []}
    out = {}

    def one_round():
        t0 = time.perf_counter_ns()
        walker = ActivityStackWalker()
        out["matcher"] = (
            _match_frames_vectorized(tokens, walker, meta), walker)
        t1 = time.perf_counter_ns()
        out["fold"] = ({}, {})
        fold_moments(*out["fold"], *fold_args)
        t2 = time.perf_counter_ns()
        round_ns["matcher"].append(t1 - t0)
        round_ns["fold"].append(t2 - t1)

    benchmark.pedantic(one_round, rounds=20, iterations=1)
    benchmark.extra_info.update(
        tokens=len(tokens), rows=len(rows),
        **_ns_per_record(round_ns["matcher"], len(tokens), "matcher.",
                         "token"),
        **_ns_per_record(round_ns["fold"], len(rows), "fold.", "row"),
    )

    table, walker = out["matcher"]
    walked = ActivityStackWalker()
    want = _match_frames_walk(tokens, walked, meta)
    assert len(table) > 10_000
    assert table.data.tobytes() == want.data.tobytes()
    assert walker._stacks == {c: s for c, s in walked._stacks.items() if s}
    want = ({}, {})
    fold_moments_ref(*want, *fold_args)
    assert [
        [(k, (m.count, m.total, m.mn, m.mx, m.sq)) for k, m in t.items()]
        for t in out["fold"]
    ] == [
        [(k, (m.count, m.total, m.mn, m.mx, m.sq)) for k, m in t.items()]
        for t in want
    ]


def test_perf_stream_timeline(benchmark, amg_trace):
    """The default streaming path (one block per packet, no
    ``window_ns``) with a 1 ms noise timeline: the engine plus sealing
    1000 timeline bins through the batch kernel."""
    trace, meta = amg_trace
    records = sum(p.n_records for p in trace.packets)

    def stream():
        return StreamingAnalysis.from_trace(trace, meta=meta, quanta=(MSEC,))

    result = _per_record_rounds(benchmark, stream, records, 10)
    batch = NoiseAnalysis(trace, meta=meta)
    assert (result.noise_timeline(MSEC).tobytes()
            == batch.noise_timeline(MSEC).tobytes())


class _OracleStats:
    """An analysis whose per-event stats come from the frozen oracle
    (``tests/reference.py``); every other query is the analysis's own."""

    def __init__(self, analysis, oracle):
        self._analysis = analysis
        self._oracle = oracle

    def __getattr__(self, name):
        return getattr(self._analysis, name)

    def stats_by_event(self, noise_only=True):
        return self._oracle.stats_by_event(noise_only=noise_only)


def test_perf_queries(benchmark, amg_trace, monkeypatch):
    """The two renders every analyzed trace gets — the ``analyze``
    summary and the full report — on a constructed analysis.

    Construction stays outside the timed region; each round queries a
    fresh analysis, so the per-event moments fold is paid for once per
    round, as in ``lttng-noise analyze``/``report``.  ``extra_info``
    carries records and query ns/record, and, apart, the first
    ``stats_by_event`` call (the fold plus one table) in ns per table
    row (min, median, p95).  Both texts must equal a freshly built
    reference: the same renders with the per-event stats of
    ``ReferenceAnalysis`` and the task summary of ``ReferenceTimeline``."""
    import repro.core.timeline
    from reference import ReferenceTimeline
    from repro.core.report import full_report, render_analysis_summary

    trace, meta = amg_trace
    records = sum(p.n_records for p in trace.packets)
    round_ns = {"stats": [], "queries": []}
    texts = []

    def setup():
        return (NoiseAnalysis(trace, meta=meta),), {}

    def query(analysis):
        t0 = time.perf_counter_ns()
        analysis.stats_by_event(noise_only=True)
        t1 = time.perf_counter_ns()
        summary = render_analysis_summary(analysis)
        report = full_report(analysis, meta=meta)
        t2 = time.perf_counter_ns()
        round_ns["stats"].append(t1 - t0)
        round_ns["queries"].append(t2 - t0)
        texts.append((summary, report, len(analysis.table)))

    benchmark.pedantic(query, setup=setup, rounds=15, iterations=1)
    summary, report, rows = texts[-1]
    benchmark.extra_info.update(
        records=records, rows=rows,
        **_ns_per_record(round_ns["queries"], records),
        **_ns_per_record(round_ns["stats"], rows, "stats.", "row"),
    )

    assert all(text == texts[0] for text in texts)
    oracle = _OracleStats(
        NoiseAnalysis(trace, meta=meta), ReferenceAnalysis(trace, meta=meta)
    )
    assert render_analysis_summary(oracle) == summary
    monkeypatch.setattr(repro.core.timeline, "TaskTimeline",
                        ReferenceTimeline)
    assert full_report(oracle, meta=meta) == report


def test_perf_renders(benchmark, amg_trace):
    """The chart (``render_chart``, top 20) and the ASCII timeline
    (``render_timeline``, width 100) of the 1 s AMG trace, each on a fresh
    analysis as in one ``lttng-noise chart``/``timeline`` call; chart
    construction is part of the chart's cost.

    ``extra_info`` carries the table rows and, per render, wall ms and ns
    per table row (min, median, p95).  Both texts must equal the
    object-path oracles of ``tests/reference.py``: the chart over
    ``interruptions_ref`` groups and ``ascii_trace_ref``."""
    from reference import ReferenceChart, ascii_trace_ref, interruptions_ref
    from repro.core import SyntheticNoiseChart
    from repro.core.report import render_chart, render_timeline

    trace, meta = amg_trace
    round_ns = {"chart": [], "timeline": []}
    texts = []

    def setup():
        return (NoiseAnalysis(trace, meta=meta),), {}

    def render(analysis):
        t0 = time.perf_counter_ns()
        chart = render_chart(SyntheticNoiseChart(analysis), 20)
        t1 = time.perf_counter_ns()
        timeline = render_timeline(analysis, 100)
        t2 = time.perf_counter_ns()
        round_ns["chart"].append(t1 - t0)
        round_ns["timeline"].append(t2 - t1)
        texts.append((chart, timeline))

    benchmark.pedantic(render, setup=setup, rounds=15, iterations=1)
    analysis = NoiseAnalysis(trace, meta=meta)
    rows = len(analysis.table)
    info = {"rows": rows}
    for name, ns in round_ns.items():
        ms = sorted(t / 1e6 for t in ns)
        info.update({
            f"{name}.ms_min": round(ms[0], 2),
            f"{name}.ms_median": round(ms[len(ms) // 2], 2),
            f"{name}.ms_p95": round(ms[-(-len(ms) * 95 // 100) - 1], 2),
            **_ns_per_record(ns, rows, f"{name}.", "row"),
        })
    benchmark.extra_info.update(info)

    assert all(text == texts[0] for text in texts)
    chart, timeline = texts[0]
    activities = analysis.table.rows()
    oracle = ReferenceChart(analysis, interruptions_ref(activities))
    assert render_chart(oracle, 20) == chart
    assert ascii_trace_ref(
        [a for a in activities if a.is_noise], analysis.start_ts,
        analysis.end_ts, analysis.ncpus, 100,
    ) == timeline


def _analyze_phase(analysis_cls, trace, meta):
    """The full analyze phase: reconstruction + classification + the
    standard query battery (tables, breakdowns, per-CPU series, timeline)."""
    analysis = analysis_cls(trace, meta=meta)
    stats = analysis.stats_by_event(noise_only=True)
    breakdown = analysis.breakdown_ns()
    per_cpu = analysis.per_cpu_noise_ns()
    per_cpu_cat = analysis.per_cpu_breakdown()
    timeline = analysis.noise_timeline(MSEC)
    total = analysis.total_noise_ns()
    return {
        "stats": {
            name: (s.count, s.total, s.max, s.min) for name, s in stats.items()
        },
        "breakdown": {c.value: v for c, v in breakdown.items()},
        "per_cpu": per_cpu.tolist(),
        "per_cpu_cat": {
            cpu: {c.value: v for c, v in cats.items()}
            for cpu, cats in per_cpu_cat.items()
        },
        "timeline": timeline,
        "total": total,
    }


def test_perf_analyze_columnar(benchmark, amg_trace):
    """Analyze-phase throughput, columnar ActivityTable path."""
    trace, meta = amg_trace
    out = benchmark.pedantic(
        lambda: _analyze_phase(NoiseAnalysis, trace, meta), rounds=3,
        iterations=1,
    )
    assert out["total"] > 0


def test_perf_analyze_reference(benchmark, amg_trace):
    """Analyze-phase throughput, per-object reference path (seed code)."""
    trace, meta = amg_trace
    out = benchmark.pedantic(
        lambda: _analyze_phase(ReferenceAnalysis, trace, meta), rounds=3,
        iterations=1,
    )
    assert out["total"] > 0


def test_columnar_speedup_and_parity(amg_trace):
    """The refactor's contract: >=5x analyze-phase speedup on the AMG trace
    with numerically identical outputs (exact integers for ns totals)."""
    trace, meta = amg_trace

    def best_of(fn, rounds):
        best = float("inf")
        result = None
        for _ in range(rounds):
            t0 = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - t0)
        return best, result

    t_ref, ref = best_of(
        lambda: _analyze_phase(ReferenceAnalysis, trace, meta), rounds=2
    )
    t_col, col = best_of(
        lambda: _analyze_phase(NoiseAnalysis, trace, meta), rounds=3
    )

    # Exact integer parity on every nanosecond total.
    assert col["stats"] == ref["stats"]
    assert col["breakdown"] == ref["breakdown"]
    assert col["per_cpu"] == ref["per_cpu"]
    assert col["per_cpu_cat"] == ref["per_cpu_cat"]
    assert col["total"] == ref["total"]
    np.testing.assert_array_equal(col["timeline"], ref["timeline"])

    speedup = t_ref / t_col
    print(f"\nanalyze phase: reference {t_ref*1000:.1f} ms, "
          f"columnar {t_col*1000:.1f} ms -> {speedup:.1f}x")
    record_metric("analyze_speedup", speedup)
    assert speedup >= 5.0, f"columnar analyze phase only {speedup:.2f}x faster"


def test_perf_decode(benchmark, amg_trace):
    """Raw record decoding (numpy bulk path)."""
    trace, meta = amg_trace
    data = trace.to_bytes()

    def decode():
        from repro.tracing.ctf import Trace

        return len(Trace.from_bytes(data).records())

    n = benchmark.pedantic(decode, rounds=5, iterations=1)
    assert n == sum(p.n_records for p in trace.packets)


def test_perf_trace_decode(benchmark, tmp_path):
    """Every trace reader is one decoder; time each way in on the 1 s AMG
    seed 1 trace (44,990 records in 8 packets of ~135 KB).

    One round decodes the trace once per path, so the paths take turns on
    the host: ``Trace.from_bytes`` on the raw and on the compressed bytes,
    ``Trace.from_file`` on the raw file, and the decoder fed the raw bytes
    in the service's ``READ_CHUNK`` (64 KiB) pieces.  ``extra_info``
    carries ns/record (min, median, p95) per path; every path must return
    the trace's packets."""
    from repro.service.http import READ_CHUNK
    from repro.tracing.ctf import StreamDecoder, Trace

    _, trace = SequoiaWorkload("AMG", nominal_ns=1 * SEC).run_traced(
        1 * SEC, seed=1)
    records = sum(p.n_records for p in trace.packets)
    raw = trace.to_bytes()
    packed = trace.to_bytes(compress=True)
    path = str(tmp_path / "amg.lttnz")
    trace.to_file(path)
    chunks = [raw[i:i + READ_CHUNK] for i in range(0, len(raw), READ_CHUNK)]

    paths = {
        "from_bytes": lambda: Trace.from_bytes(raw).packets,
        "from_bytes_compressed": lambda: Trace.from_bytes(packed).packets,
        "from_file": lambda: Trace.from_file(path).packets,
        "pieces_64k": lambda: list(StreamDecoder().decode(chunks)),
    }
    round_ns = {name: [] for name in paths}
    decoded = {}

    def one_round():
        for name, decode in paths.items():
            t0 = time.perf_counter_ns()
            decoded[name] = decode()
            round_ns[name].append(time.perf_counter_ns() - t0)

    benchmark.pedantic(one_round, rounds=20, iterations=1)
    benchmark.extra_info["records"] = records
    for name, ns in round_ns.items():
        benchmark.extra_info.update(_ns_per_record(ns, records, f"{name}."))
    for name, packets in decoded.items():
        assert packets == trace.packets, name


# ----------------------------------------------------------------------
# Streaming analysis: peak memory must be bounded by the window, not the
# trace length.
# ----------------------------------------------------------------------

def _synthetic_packets(n_blocks, ncpus=2, block_ns=MSEC):
    """Deterministic packet stream: per CPU and per 1 ms block, a burst of
    timer interrupts on top of a running rank.  Yields packets in time
    order, round-robin across CPUs, without materializing the trace."""
    from repro.simkernel.task import TaskState
    from repro.tracing.ctf import Packet
    from repro.tracing.events import (
        Ev,
        Flag,
        RECORD_DTYPE,
        encode_switch,
        encode_task_state,
    )

    for i in range(n_blocks):
        t0 = i * block_ns
        for cpu in range(ncpus):
            pid = 1000 + cpu
            rows = []
            if i == 0:
                rows.append((t0 + 1, int(Ev.TASK_STATE), cpu, int(Flag.POINT),
                             pid, encode_task_state(pid, TaskState.RUNNING)))
                rows.append((t0 + 1, int(Ev.SCHED_SWITCH), cpu,
                             int(Flag.POINT), pid, encode_switch(0, pid)))
            for k in range(20):
                s = t0 + 10_000 + k * 40_000
                rows.append((s, int(Ev.IRQ_TIMER), cpu, int(Flag.ENTRY),
                             pid, 0))
                rows.append((s + 5_000, int(Ev.IRQ_TIMER), cpu,
                             int(Flag.EXIT), pid, 0))
            arr = np.zeros(len(rows), dtype=RECORD_DTYPE)
            for j, row in enumerate(rows):
                arr[j] = row
            yield Packet(cpu=cpu, n_records=len(arr), lost_before=0,
                         begin_ts=int(arr["time"][0]),
                         end_ts=int(arr["time"][-1]),
                         payload=arr.tobytes())


def _stream_peak_bytes(n_blocks, window_ns=MSEC):
    """tracemalloc peak of analyzing n_blocks of packets incrementally.

    The obs registry is suspended for the measurement: retained telemetry
    (one span per window) is not part of the analysis' memory contract.
    """
    import tracemalloc

    from repro import obs
    from repro.core.model import TaskInfo, TraceMeta
    from repro.simkernel.task import TaskKind

    meta = TraceMeta({
        1000: TaskInfo(1000, "rank0", TaskKind.RANK),
        1001: TaskInfo(1001, "rank1", TaskKind.RANK),
        0: TaskInfo(0, "swapper", TaskKind.IDLE),
    })
    was_enabled = obs.enabled()
    if was_enabled:
        obs.disable()
    try:
        tracemalloc.start()
        tracemalloc.reset_peak()
        sa = StreamingAnalysis(ncpus=2, start_ts=0, end_ts=n_blocks * MSEC,
                               meta=meta, window_ns=window_ns)
        for packet in _synthetic_packets(n_blocks):
            sa.feed_packet(packet)
        sa.finish()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    finally:
        if was_enabled:
            obs.enable()
    return peak, sa


def test_streaming_memory_bounded():
    """The tentpole's memory contract: a 10x longer packet stream must not
    cost 10x the peak memory — streaming state is bounded by the analysis
    window.  Batch analysis of the same stream scales linearly (it holds
    every record and every activity at once)."""
    import tracemalloc

    from repro.core.model import TaskInfo, TraceMeta
    from repro.simkernel.task import TaskKind
    from repro.tracing.ctf import Trace

    _stream_peak_bytes(5)  # warm-up: imports and numpy caches
    short_peak, short_sa = _stream_peak_bytes(50)
    long_peak, long_sa = _stream_peak_bytes(500)
    growth = long_peak / short_peak
    print(f"\nstreaming peak memory: 50 blocks {short_peak/1024:.0f} KiB, "
          f"500 blocks {long_peak/1024:.0f} KiB -> {growth:.2f}x for 10x "
          f"the stream")
    record_metric("streaming_peak_growth", growth)
    assert long_sa.records_processed == 10 * short_sa.records_processed - 36
    assert growth < 2.0, (
        f"streaming peak memory grew {growth:.2f}x for a 10x longer stream"
    )

    # The batch path on the identical stream: linear growth, and a higher
    # absolute peak at 10x than streaming ever reaches.
    packets = list(_synthetic_packets(500))
    meta = TraceMeta({
        1000: TaskInfo(1000, "rank0", TaskKind.RANK),
        1001: TaskInfo(1001, "rank1", TaskKind.RANK),
        0: TaskInfo(0, "swapper", TaskKind.IDLE),
    })
    trace = Trace(ncpus=2, start_ts=0, end_ts=500 * MSEC, packets=packets)
    tracemalloc.start()
    tracemalloc.reset_peak()
    batch = NoiseAnalysis(trace, meta=meta)
    batch_total = batch.total_noise_ns()
    _, batch_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    print(f"batch peak memory at 500 blocks: {batch_peak/1024:.0f} KiB "
          f"(streaming: {long_peak/1024:.0f} KiB)")
    assert long_peak < batch_peak
    # Same numbers, of course.
    assert long_sa.total_noise_ns() == batch_total


# ----------------------------------------------------------------------
# Sweep orchestration: the planner/backend/store layers must scale with
# workers and reuse completed work across reruns.
# ----------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="worker scaling needs >= 4 cores")
def test_local_pool_worker_scaling():
    """The dispatch layer's contract: fanning a sweep from 1 to 4 pool
    workers must cut wall time near-linearly (>= 2x at 4 workers, i.e.
    >= 50 % parallel efficiency after pool startup overhead)."""
    from repro.exec import LocalPoolBackend, RunSpec, SweepPlan

    specs = [RunSpec.make("AMG", 1000 * MSEC, s, 4) for s in range(8)]

    def timed(workers):
        t0 = time.perf_counter()
        SweepPlan(specs).execute(LocalPoolBackend(workers))
        return time.perf_counter() - t0

    timed(1)  # warm-up: imports on both sides of the fork
    one_worker_s = timed(1)
    four_worker_s = timed(4)
    speedup = one_worker_s / four_worker_s
    print(f"\nworker scaling: 1 worker {one_worker_s:.2f} s, "
          f"4 workers {four_worker_s:.2f} s -> {speedup:.2f}x "
          f"({100 * speedup / 4:.0f} % efficiency)")
    record_metric("pool_scaling_4w", speedup)
    assert speedup >= 2.0, (
        f"4 pool workers only {speedup:.2f}x faster than 1"
    )


def test_plan_rerun_cache_reuse(tmp_path):
    """The store+planner contract CI gates on: re-running a completed
    planned sweep must serve >90 % of it from the sharded store (here:
    all of it) with bit-identical traces."""
    from repro.exec import RunSpec, SerialBackend, ShardedStore, SweepPlan

    specs = [RunSpec.make("FTQ", 60 * MSEC, s, 2) for s in range(8)]
    plan = SweepPlan(specs, shards=4, plan_dir=str(tmp_path / "plan"))
    plan.save()

    def run_once():
        store = ShardedStore(str(tmp_path / "store"))
        return plan.execute(SerialBackend(), store), dict(plan.last_stats)

    cold, cold_stats = run_once()
    assert cold_stats["simulated"] == len(specs)
    warm, warm_stats = run_once()
    reuse = warm_stats["cached"] / warm_stats["runs"]
    print(f"\nplan rerun: {warm_stats['cached']:.0f}/"
          f"{warm_stats['runs']:.0f} served from the store "
          f"({100 * reuse:.0f} % reuse)")
    record_metric("plan_rerun_reuse", reuse)
    assert reuse > 0.9, f"rerun reuse ratio {reuse:.2f} <= 0.9"
    for a, b in zip(cold, warm):
        assert a.spec == b.spec
        assert a.trace.to_bytes() == b.trace.to_bytes()


def test_sweep_analyses_once_per_unique_spec(benchmark, tmp_path,
                                             monkeypatch):
    """Warm sweep cost when seeds repeat: a cold and then warm 48-seed
    LAMMPS 100 ms sweeps over a 36-seed pool, through a ``ShardedStore``.

    A warm sweep simulates nothing, so analysis dominates it; a sweep
    analyses each unique spec once, however often its seed repeats.
    ``extra_info`` carries the unique and analysis counts and warm ms per
    seed (min, median, p95 over the rounds)."""
    import random

    from repro.core import analysis as core_analysis
    from repro.core.sweep import SeedSweep
    from repro.exec import ShardedStore

    rng = random.Random(21)
    seeds = [rng.randrange(36) for _ in range(48)]
    unique = len(set(seeds))
    built = []

    class CountingAnalysis(NoiseAnalysis):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(core_analysis, "NoiseAnalysis", CountingAnalysis)
    store = ShardedStore(str(tmp_path / "store"))

    def sweep():
        return SeedSweep.run("LAMMPS", 100 * MSEC, seeds, 8, cache=store)

    cold = sweep()
    assert cold.exec_stats["simulated"] == unique
    per_round = [len(built)]
    round_ns = []

    def warm():
        del built[:]
        t0 = time.perf_counter_ns()
        result = sweep()
        round_ns.append(time.perf_counter_ns() - t0)
        per_round.append(len(built))
        return result

    result = benchmark.pedantic(warm, rounds=5, iterations=1)
    assert result.exec_stats["simulated"] == 0
    assert len(result.analyses) == len(seeds)
    for a, b in zip(cold.analyses, result.analyses):
        assert a.records.tobytes() == b.records.tobytes()
    per_seed = sorted(ns / 1e6 / len(seeds) for ns in round_ns)
    p95 = per_seed[max(0, -(-len(per_seed) * 95 // 100) - 1)]
    benchmark.extra_info.update(
        seeds=len(seeds),
        unique_specs=unique,
        analyses=per_round[-1],
        warm_ms_per_seed_min=round(per_seed[0], 3),
        warm_ms_per_seed_median=round(per_seed[len(per_seed) // 2], 3),
        warm_ms_per_seed_p95=round(p95, 3),
    )
    print(f"\nsweep: {len(seeds)} seeds, {unique} unique, "
          f"{per_round[-1]} analyses per sweep; warm "
          f"{per_seed[len(per_seed) // 2]:.2f} ms/seed (median)")
    record_metric("sweep_analyses_per_unique", per_round[-1] / unique)
    assert per_round == [unique] * len(per_round)
