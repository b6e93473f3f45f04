"""Tests for CPU oversubscription timeslicing and high-resolution timers."""

import pytest

from repro.core import NoiseAnalysis, TraceMeta
from repro.simkernel import ComputeNode, NodeConfig, RankProgram
from repro.tracing.events import Ev, Flag, ListSink
from repro.tracing.tracer import Tracer
from repro.util.units import MSEC, SEC


class Spin(RankProgram):
    def step(self, node, task):
        node.continue_compute(task, 50 * MSEC)


class TestTimeslicing:
    def test_two_ranks_share_one_cpu_fairly(self):
        node = ComputeNode(NodeConfig(ncpus=1, seed=41))
        a = node.spawn_rank("a", 0, Spin())
        b = node.spawn_rank("b", 0, Spin())
        node.run(2 * SEC)
        total = a.total_cpu_ns + b.total_cpu_ns
        assert total > 1.9 * SEC  # CPU almost fully used
        share = a.total_cpu_ns / total
        assert 0.4 < share < 0.6  # fair split
        assert node.scheduler.slice_rotations > 10

    def test_rotation_cadence_tracks_timeslice(self):
        def rotations(slice_ns):
            node = ComputeNode(
                NodeConfig(ncpus=1, seed=42, timeslice_ns=slice_ns)
            )
            node.spawn_rank("a", 0, Spin())
            node.spawn_rank("b", 0, Spin())
            node.run(2 * SEC)
            return node.scheduler.slice_rotations

        fast = rotations(10 * MSEC)
        slow = rotations(100 * MSEC)
        assert fast > 3 * slow

    def test_single_rank_never_rotated(self):
        node = ComputeNode(NodeConfig(ncpus=1, seed=43))
        node.spawn_rank("a", 0, Spin())
        node.run(1 * SEC)
        assert node.scheduler.slice_rotations == 0

    def test_oversubscription_counts_as_preemption_noise(self):
        # A displaced runnable rank is a displaced runnable rank — whether
        # a daemon or a sibling rank displaced it... but rank-vs-rank time
        # sharing shows up as RUNNABLE wait time, not daemon preemption.
        node = ComputeNode(NodeConfig(ncpus=1, seed=44))
        tracer = Tracer(node)
        tracer.attach()
        a = node.spawn_rank("a", 0, Spin())
        b = node.spawn_rank("b", 0, Spin())
        node.run(1 * SEC)
        from repro.core.timeline import TaskTimeline
        from repro.simkernel.task import TaskState

        trace = tracer.finish()
        tl = TaskTimeline(trace.records(), meta=TraceMeta.from_node(node),
                          end_ts=trace.end_ts)
        # Each rank spends roughly half the run displaced-but-runnable.
        for pid in (a.pid, b.pid):
            runnable = tl.time_in_state(pid, TaskState.RUNNABLE)
            assert 0.3 * SEC < runnable < 0.7 * SEC


class TestHrtimers:
    def test_fires_at_exact_deadline(self):
        node = ComputeNode(NodeConfig(ncpus=1, seed=45))
        sink = ListSink()
        node.attach_sink(sink)
        node.spawn_rank("r", 0, Spin())
        fired = []
        node.timers.add_hrtimer(
            3_333_333, lambda: fired.append(node.engine.now), cpu=0
        )
        node.run(100 * MSEC)
        assert len(fired) == 1
        # The callback runs at interrupt exit: deadline + top-half time.
        assert 3_333_333 <= fired[0] < 3_333_333 + 50_000
        assert node.timers.hrtimer_fires == 1

    def test_periodic_hrtimer_raises_tick_rate(self):
        # The paper's Table V inference, inverted: an application that DOES
        # set its own timers shows a timer-interrupt frequency above HZ.
        node = ComputeNode(NodeConfig(ncpus=1, seed=46))
        tracer = Tracer(node)
        tracer.attach()
        node.spawn_rank("r", 0, Spin())
        node.timers.add_hrtimer(
            1 * MSEC, lambda: None, cpu=0, period_ns=5 * MSEC
        )  # 200/s extra
        node.run(1 * SEC)
        analysis = NoiseAnalysis(tracer.finish(), meta=TraceMeta.from_node(node))
        freq = analysis.stats("timer_interrupt").freq
        assert freq == pytest.approx(300, rel=0.1)  # 100 Hz tick + 200/s

    def test_each_fire_runs_timer_softirq(self):
        node = ComputeNode(NodeConfig(ncpus=1, seed=47))
        sink = ListSink()
        node.attach_sink(sink)
        node.spawn_rank("r", 0, Spin())
        node.timers.add_hrtimer(10 * MSEC, lambda: None, cpu=0, period_ns=10 * MSEC)
        node.run(500 * MSEC)
        irqs = sum(
            1 for r in sink.records if r[1] == Ev.IRQ_TIMER and r[3] == Flag.ENTRY
        )
        softirqs = sum(
            1
            for r in sink.records
            if r[1] == Ev.SOFTIRQ_TIMER and r[3] == Flag.ENTRY
        )
        assert abs(irqs - softirqs) <= 2

    def test_validation(self):
        node = ComputeNode(NodeConfig(ncpus=1))
        with pytest.raises(ValueError):
            node.timers.add_hrtimer(0, lambda: None)
