"""Integration tests: the full pipeline, end to end.

simulate -> trace (binary) -> decode -> reconstruct -> classify -> report,
plus the cross-cutting invariants that hold over a whole real execution.
"""

import numpy as np
import pytest

from repro.core import (
    NoiseAnalysis,
    SyntheticNoiseChart,
    TraceMeta,
)
from repro.tracing.ctf import Trace
from repro.tracing.events import Flag
from repro.util.units import MSEC, SEC
from repro.workloads import FTQWorkload, SequoiaWorkload, ftq_output


class TestPipeline:
    def test_analysis_survives_serialization(self, amg_run, tmp_path):
        node, trace, meta = amg_run
        path = str(tmp_path / "amg.lttnz")
        trace.to_file(path)
        reloaded = Trace.from_file(path)
        a = NoiseAnalysis(trace, meta=meta)
        b = NoiseAnalysis(reloaded, meta=meta)
        assert a.total_noise_ns() == b.total_noise_ns()
        assert len(a.activities) == len(b.activities)

    def test_deterministic_end_to_end(self):
        def run():
            wl = SequoiaWorkload("SPHOT", nominal_ns=300 * MSEC)
            node, trace = wl.run_traced(300 * MSEC, seed=77)
            return trace.records()

        assert np.array_equal(run(), run())

    def test_entry_exit_balance(self, amg_run):
        _, trace, _ = amg_run
        records = trace.records()
        from repro.tracing.events import FIRST_POINT_EVENT

        paired = records[records["event"] < FIRST_POINT_EVENT]
        entries = int((paired["flag"] == Flag.ENTRY).sum())
        exits = int((paired["flag"] == Flag.EXIT).sum())
        # At most ncpus * stack-depth activities are cut by the trace end.
        assert 0 <= entries - exits <= 4 * 8

    def test_timestamps_monotonic_per_cpu(self, amg_run):
        _, trace, _ = amg_run
        for cpu in range(trace.ncpus):
            times = trace.cpu_records(cpu)["time"]
            assert (np.diff(times.astype(np.int64)) >= 0).all()

    def test_no_lost_records_with_default_buffers(self, amg_run):
        _, trace, _ = amg_run
        assert trace.records_lost == 0


class TestNoiseAccountingInvariants:
    def test_noise_bounded_by_wall_time(self, amg_analysis):
        assert 0 < amg_analysis.total_noise_ns() < (
            amg_analysis.span_ns * amg_analysis.ncpus
        )

    def test_self_never_exceeds_total(self, amg_analysis):
        for act in amg_analysis.activities:
            assert 0 <= act.self_ns <= act.total_ns

    def test_depth0_self_sums_equal_union(self, amg_analysis):
        # On each CPU, sum of self over all activities == wall union of the
        # depth-0 activity intervals (nesting accounted exactly once).
        for cpu in range(amg_analysis.ncpus):
            acts = [a for a in amg_analysis.activities if a.cpu == cpu]
            self_sum = sum(a.self_ns for a in acts)
            intervals = sorted(
                (a.start, a.end) for a in acts if a.depth == 0
            )
            union = 0
            cursor = None
            for s, e in intervals:
                if cursor is None or s > cursor:
                    union += e - s
                    cursor = e
                elif e > cursor:
                    union += e - cursor
                    cursor = e
            assert self_sum == pytest.approx(union, rel=0.02)

    def test_interruption_noise_equals_activity_noise(self, ftq_analysis):
        chart = SyntheticNoiseChart(ftq_analysis)
        total_from_groups = chart.total_noise_ns()
        total_from_acts = ftq_analysis.total_noise_ns()
        assert total_from_groups == total_from_acts


class TestFigure1EndToEnd:
    def test_ftq_and_trace_agree(self):
        wl = FTQWorkload()
        node, trace = wl.run_traced(1 * SEC, seed=101, ncpus=2)
        an = NoiseAnalysis(trace, meta=TraceMeta.from_node(node))
        cmp = ftq_output(an, cpu=0)
        assert cmp.correlation() > 0.95
        assert 0 <= cmp.mean_overestimate_ns() < 1000


class TestOverheadClaim:
    def test_tracing_overhead_well_below_one_percent(self):
        # Paper Section III-A: 0.28 % average overhead.  Compare the same
        # seeded workload traced vs untraced by application CPU progress.
        wl_traced = SequoiaWorkload("SPHOT", nominal_ns=SEC)
        node_t, trace = wl_traced.run_traced(SEC, seed=55)
        wl_plain = SequoiaWorkload("SPHOT", nominal_ns=SEC)
        node_u = wl_plain.run_untraced(SEC, seed=55)

        kernel_t = node_t.total_kernel_ns()
        kernel_u = node_u.total_kernel_ns()
        overhead = (kernel_t - kernel_u) / (SEC * node_t.config.ncpus)
        assert 0 <= overhead < 0.01
