"""Unit tests for the tick and software timers."""

import pytest

from repro.simkernel import ComputeNode, NodeConfig, RankProgram
from repro.tracing.events import Ev, Flag, ListSink
from repro.util.units import MSEC, SEC


class Spin(RankProgram):
    def step(self, node, task):
        node.continue_compute(task, 10 * MSEC)


def make_node(ncpus=2, seed=0, hz=100):
    node = ComputeNode(NodeConfig(ncpus=ncpus, seed=seed, hz=hz))
    sink = ListSink()
    node.attach_sink(sink)
    return node, sink


class TestTick:
    def test_tick_frequency_is_hz_per_cpu(self):
        node, sink = make_node(ncpus=2, hz=100)
        node.run(1 * SEC)
        for cpu in (0, 1):
            entries = [
                r
                for r in sink.records
                if r[1] == Ev.IRQ_TIMER and r[3] == Flag.ENTRY and r[2] == cpu
            ]
            assert abs(len(entries) - 100) <= 2

    def test_every_tick_runs_timer_softirq(self):
        node, sink = make_node()
        node.run(500 * MSEC)
        irqs = [
            r for r in sink.records if r[1] == Ev.IRQ_TIMER and r[3] == Flag.ENTRY
        ]
        softirqs = [
            r
            for r in sink.records
            if r[1] == Ev.SOFTIRQ_TIMER and r[3] == Flag.ENTRY
        ]
        assert abs(len(irqs) - len(softirqs)) <= node.config.ncpus

    def test_ticks_staggered_across_cpus(self):
        node, sink = make_node(ncpus=4)
        node.run(50 * MSEC)
        first = {}
        for t, ev, cpu, flag, pid, arg in sink.records:
            if ev == Ev.IRQ_TIMER and flag == Flag.ENTRY and cpu not in first:
                first[cpu] = t
        times = sorted(first.values())
        assert len(set(times)) == len(times)  # no two CPUs tick together


class TestSoftwareTimers:
    def test_oneshot_fires_in_timer_softirq(self):
        node, sink = make_node()
        fired = []
        node.timers.add_timer(25 * MSEC, lambda: fired.append(node.engine.now), cpu=0)
        node.run(100 * MSEC)
        assert len(fired) == 1
        # Fires at the first tick after expiry (wheel granularity).
        assert fired[0] >= 25 * MSEC
        assert fired[0] <= 45 * MSEC
        expires = [r for r in sink.records if r[1] == Ev.TIMER_EXPIRE]
        assert len(expires) == 1

    def test_periodic_timer(self):
        node, _ = make_node()
        fired = []
        node.timers.add_timer(
            10 * MSEC, lambda: fired.append(node.engine.now), period_ns=50 * MSEC
        )
        node.run(500 * MSEC)
        assert 8 <= len(fired) <= 11

    def test_rejects_negative_delay(self):
        node, _ = make_node()
        with pytest.raises(ValueError):
            node.timers.add_timer(-1, lambda: None)

    def test_timer_callback_can_rearm(self):
        node, _ = make_node()
        fired = []

        def cb():
            fired.append(node.engine.now)
            if len(fired) < 3:
                node.timers.add_timer(20 * MSEC, cb)

        node.timers.add_timer(20 * MSEC, cb)
        node.run(500 * MSEC)
        assert len(fired) == 3
