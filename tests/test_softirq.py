"""Unit tests for softirq/tasklet semantics."""

from repro.simkernel import ComputeNode, NodeConfig, RankProgram
from repro.simkernel.softirq import Vec
from repro.tracing.events import Ev, Flag, ListSink
from repro.util.units import MSEC


class Spin(RankProgram):
    def step(self, node, task):
        node.continue_compute(task, 10 * MSEC)


def make_node(ncpus=2, seed=0):
    node = ComputeNode(NodeConfig(ncpus=ncpus, seed=seed))
    sink = ListSink()
    node.attach_sink(sink)
    return node, sink


class TestDispatch:
    def test_priority_order(self):
        node, sink = make_node()
        node.spawn_rank("r", 0, Spin())
        node.start()
        node.engine.run_until(node.engine.now + 1 * MSEC)
        cpu = node.cpus[0]
        # Raise out of priority order; they must run TIMER then NET_RX then RCU.
        node.softirq.raise_vec(0, Vec.RCU)
        node.softirq.raise_vec(0, Vec.NET_RX)
        node.softirq.raise_vec(0, Vec.TIMER)
        node.softirq.kick(cpu)
        node.engine.run_until(node.engine.now + 1 * MSEC)
        softirq_events = (Ev.SOFTIRQ_TIMER, Ev.TASKLET_NET_RX, Ev.SOFTIRQ_RCU)
        entries = [
            r[1]
            for r in sink.records
            if r[1] in softirq_events and r[3] == Flag.ENTRY and r[2] == 0
        ]
        first_three = entries[:3]
        assert first_three == [Ev.SOFTIRQ_TIMER, Ev.TASKLET_NET_RX, Ev.SOFTIRQ_RCU]

    def test_run_defers_inside_softirq(self):
        node, sink = make_node()
        node.spawn_rank("r", 0, Spin())
        node.start()
        node.engine.run_until(node.engine.now + 1 * MSEC)
        cpu = node.cpus[0]
        node.softirq.raise_vec(0, Vec.TIMER)
        assert node.softirq.kick(cpu) is True
        # Now inside run_timer_softirq; a nested run() must refuse.
        node.softirq.raise_vec(0, Vec.RCU)
        assert node.softirq.run(cpu) is False
        node.engine.run_until(node.engine.now + 1 * MSEC)
        # But the pending RCU drains when the TIMER softirq exits.
        rcu = [r for r in sink.records if r[1] == Ev.SOFTIRQ_RCU and r[2] == 0]
        assert len(rcu) >= 2

    def test_kick_requires_quiescent_cpu(self):
        node, sink = make_node()
        node.start()
        cpu = node.cpus[0]
        node.softirq.raise_vec(0, Vec.TIMER)
        assert node.softirq.kick(cpu) is True  # idle context counts

    def test_pending_vecs_listing(self):
        node, _ = make_node()
        node.softirq.raise_vec(1, Vec.NET_TX)
        pending = node.softirq._pending[1]
        assert [i for i, p in enumerate(pending) if p] == [int(Vec.NET_TX)]


class TestTaskletSerialization:
    def test_same_tasklet_not_concurrent_across_cpus(self):
        node, sink = make_node(ncpus=2)
        node.spawn_rank("r0", 0, Spin())
        node.spawn_rank("r1", 1, Spin())
        node.start()
        node.engine.run_until(node.engine.now + 1 * MSEC)
        # Start NET_RX on cpu0, then try on cpu1 while cpu0's runs.
        node.softirq.raise_vec(0, Vec.NET_RX)
        node.softirq.kick(node.cpus[0])
        node.softirq.raise_vec(1, Vec.NET_RX)
        started = node.softirq.kick(node.cpus[1])
        assert started is False or node.softirq.tasklet_conflicts >= 0
        node.engine.run_until(node.engine.now + 5 * MSEC)
        # Verify no overlap of NET_RX frames across CPUs in the trace.
        intervals = []
        open_at = {}
        for t, ev, cpu, flag, pid, arg in sink.records:
            if ev != Ev.TASKLET_NET_RX:
                continue
            if flag == Flag.ENTRY:
                open_at[cpu] = t
            elif flag == Flag.EXIT:
                intervals.append((open_at.pop(cpu), t))
        intervals.sort()
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert s2 >= e1  # serialized

    def test_softirqs_may_run_concurrently(self):
        # TIMER is a plain softirq: no serialization bookkeeping.
        node, _ = make_node()
        assert int(Vec.TIMER) not in node.softirq._tasklet_owner
