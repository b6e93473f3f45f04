"""Robustness: the analyzer on degraded traces.

Real tracing loses data (full buffers, crashed collection, truncated
files).  The analyzer must stay correct on what remains: no crashes, no
negative durations, conservative totals.
"""

import numpy as np
import pytest

from repro.core import NoiseAnalysis, SyntheticNoiseChart, TraceMeta
from repro.tracing.ctf import Packet, Trace
from repro.util.units import MSEC, SEC
from repro.workloads import FTQWorkload


@pytest.fixture(scope="module")
def full_run():
    workload = FTQWorkload()
    node, trace = workload.run_traced(1 * SEC, seed=71, ncpus=2)
    return node, trace, TraceMeta.from_node(node)


def drop_packets(trace, keep_fraction, seed=0):
    """A trace with a random subset of packets lost (collector crash)."""
    rng = np.random.default_rng(seed)
    kept = [p for p in trace.packets if rng.random() < keep_fraction]
    return Trace(
        ncpus=trace.ncpus,
        start_ts=trace.start_ts,
        end_ts=trace.end_ts,
        packets=kept,
    )


def drop_time_window(trace, t0, t1):
    """A trace with every record in [t0, t1) removed (overwrite gap)."""
    packets = []
    for p in trace.packets:
        records = p.records()
        mask = (records["time"] < t0) | (records["time"] >= t1)
        kept = records[mask]
        if kept.size == 0:
            continue
        packets.append(
            Packet(
                cpu=p.cpu,
                n_records=int(kept.size),
                lost_before=p.lost_before + int((~mask).sum()),
                begin_ts=int(kept["time"].min()),
                end_ts=int(kept["time"].max()),
                payload=kept.tobytes(),
            )
        )
    return Trace(
        ncpus=trace.ncpus,
        start_ts=trace.start_ts,
        end_ts=trace.end_ts,
        packets=packets,
    )


class TestDegradedTraces:
    def test_packet_loss_degrades_gracefully(self, full_run):
        node, trace, meta = full_run
        full = NoiseAnalysis(trace, meta=meta)
        degraded = NoiseAnalysis(drop_packets(trace, 0.7, seed=1), meta=meta)
        # Fewer activities, never more; all invariants hold.
        assert len(degraded.activities) <= len(full.activities)
        for act in degraded.activities:
            assert 0 <= act.self_ns <= act.total_ns

    def test_time_window_gap(self, full_run):
        node, trace, meta = full_run
        gapped = drop_time_window(trace, 400 * MSEC, 600 * MSEC)
        analysis = NoiseAnalysis(gapped, meta=meta)
        assert analysis.total_noise_ns() > 0
        # The chart still builds and the gap region is (near) empty.
        chart = SyntheticNoiseChart(analysis)
        in_gap = [
            g
            for g in chart.interruptions
            if 410 * MSEC <= g.start < 590 * MSEC and not any(
                a.truncated for a in g.activities
            )
        ]
        assert len(in_gap) <= 2  # only boundary-truncation artifacts

    def test_lost_counter_preserved(self, full_run):
        node, trace, meta = full_run
        gapped = drop_time_window(trace, 100 * MSEC, 200 * MSEC)
        assert gapped.records_lost > 0

    def test_empty_trace(self, full_run):
        node, trace, meta = full_run
        empty = Trace(ncpus=2, start_ts=0, end_ts=SEC)
        analysis = NoiseAnalysis(empty, meta=meta)
        assert analysis.total_noise_ns() == 0
        assert analysis.activities == []
        assert analysis.stats("page_fault").count == 0

    def test_single_cpu_missing(self, full_run):
        node, trace, meta = full_run
        half = Trace(
            ncpus=trace.ncpus,
            start_ts=trace.start_ts,
            end_ts=trace.end_ts,
            packets=[p for p in trace.packets if p.cpu == 0],
        )
        analysis = NoiseAnalysis(half, meta=meta)
        assert all(a.cpu == 0 for a in analysis.activities)
        assert analysis.total_noise_ns() > 0

    def test_duplicated_packets_do_not_crash(self, full_run):
        # A buggy collector may duplicate a sub-buffer; reconstruction must
        # survive (duplicate EXITs are skipped as unmatched).
        node, trace, meta = full_run
        doubled = Trace(
            ncpus=trace.ncpus,
            start_ts=trace.start_ts,
            end_ts=trace.end_ts,
            packets=list(trace.packets) + [trace.packets[0]],
        )
        analysis = NoiseAnalysis(doubled, meta=meta)
        for act in analysis.activities:
            assert act.self_ns >= 0
