"""Unit tests for the scheduler: preemption chains, block/wake, migration.

The key structural test reproduces the paper's Figure 2b sequence: a daemon
preemption must appear in the trace as schedule() -> sched_switch(rank ->
daemon) -> daemon interval -> schedule() -> sched_switch(daemon -> rank).
"""

import pytest

from repro.simkernel import ComputeNode, NodeConfig, RankProgram, TaskKind
from repro.simkernel.task import TaskState
from repro.tracing.events import Ev, Flag, ListSink, decode_switch
from repro.util.units import MSEC, USEC


class Spin(RankProgram):
    def step(self, node, task):
        node.continue_compute(task, 50 * MSEC)


def make_node(ncpus=1, seed=0):
    node = ComputeNode(NodeConfig(ncpus=ncpus, seed=seed))
    sink = ListSink()
    node.attach_sink(sink)
    return node, sink


class TestPreemptionChain:
    def test_figure_2b_sequence(self):
        node, sink = make_node()
        rank = node.spawn_rank("ftq", 0, Spin())
        node.start()
        node.engine.run_until(5 * MSEC)  # rank is mid-burst
        daemon = node._make_daemon_task("eventd", TaskKind.UDAEMON, 0)
        node.scheduler.activate_daemon(daemon, 0, 2215)
        node.engine.run_until(6 * MSEC)

        switch_args = [
            decode_switch(r[5]) for r in sink.records if r[1] == Ev.SCHED_SWITCH
        ]
        assert (rank.pid, daemon.pid) in switch_args
        assert (daemon.pid, rank.pid) in switch_args

        # Two schedule() invocations bracketing the daemon run.
        relevant = [
            r
            for r in sink.records
            if r[1] in (Ev.SCHED_CALL, Ev.SCHED_SWITCH) and r[0] >= 5 * MSEC
        ]
        kinds = [
            ("sched", r[3])
            if r[1] == Ev.SCHED_CALL
            else ("switch", decode_switch(r[5]))
            for r in relevant
        ]
        # Pattern: sched entry/exit, switch to daemon, sched entry/exit,
        # switch back to rank.
        assert kinds[0] == ("sched", Flag.ENTRY)
        assert kinds[1] == ("sched", Flag.EXIT)
        assert kinds[2] == ("switch", (rank.pid, daemon.pid))
        assert ("switch", (daemon.pid, rank.pid)) in kinds[3:]

    def test_preempted_rank_marked_runnable_not_blocked(self):
        node, sink = make_node()
        rank = node.spawn_rank("r", 0, Spin())
        node.start()
        node.engine.run_until(5 * MSEC)
        daemon = node._make_daemon_task("d", TaskKind.KDAEMON, 0)
        node.scheduler.activate_daemon(daemon, 0, 10 * USEC)
        # Mid-preemption: the rank is RUNNABLE, not BLOCKED.
        node.engine.run_until(node.engine.now + 2 * USEC)
        assert rank.state == TaskState.RUNNABLE
        node.engine.run_until(node.engine.now + 1 * MSEC)
        assert rank.state == TaskState.RUNNING
        assert node.scheduler.preemptions >= 1

    def test_daemon_bursts_coalesce_without_switch(self):
        node, sink = make_node()
        node.spawn_rank("r", 0, Spin())
        node.start()
        node.engine.run_until(5 * MSEC)
        daemon = node._make_daemon_task("d", TaskKind.KDAEMON, 0)
        node.scheduler.activate_daemon(daemon, 0, 10 * USEC)
        node.scheduler.activate_daemon(daemon, 0, 10 * USEC)
        node.engine.run_until(node.engine.now + 5 * MSEC)
        switches = [
            decode_switch(r[5]) for r in sink.records if r[1] == Ev.SCHED_SWITCH
        ]
        to_daemon = [s for s in switches if s[1] == daemon.pid]
        assert len(to_daemon) == 1  # both bursts under one context switch


class TestBlockWake:
    def test_block_then_wake_restores_rank(self):
        node, sink = make_node()
        events = []

        class BlockOnce(RankProgram):
            def __init__(self):
                self.blocked = False

            def step(self, prog_node, task):
                if not self.blocked:
                    self.blocked = True
                    prog_node.block_rank(task, on_wake=lambda: events.append("woke"))
                    prog_node.engine.schedule_after(
                        3 * MSEC, lambda: prog_node.wake_rank(task)
                    )
                else:
                    prog_node.continue_compute(task, 10 * MSEC)

        rank = node.spawn_rank("r", 0, BlockOnce())
        node.start()
        node.engine.run_until(1 * MSEC)
        assert rank.state == TaskState.BLOCKED
        node.engine.run_until(10 * MSEC)
        assert events == ["woke"]
        assert rank.state == TaskState.RUNNING

    def test_wake_of_non_blocked_is_noop(self):
        node, _ = make_node()
        rank = node.spawn_rank("r", 0, Spin())
        node.start()
        node.engine.run_until(1 * MSEC)
        wakeups_before = rank.wakeups
        node.wake_rank(rank)
        assert rank.wakeups == wakeups_before

    def test_blocked_rank_cpu_goes_idle(self):
        node, sink = make_node()

        class BlockForever(RankProgram):
            def step(self, prog_node, task):
                prog_node.block_rank(task)

        rank = node.spawn_rank("r", 0, BlockForever())
        node.start()
        node.engine.run_until(1 * MSEC)
        cpu = node.cpus[0]
        assert cpu.stack[0].task.kind == TaskKind.IDLE
        assert rank.saved_frame is not None


class TestMigration:
    def test_migrate_queued_moves_activation(self):
        node, sink = make_node(ncpus=2)
        node.spawn_rank("r0", 0, Spin())
        node.start()
        node.engine.run_until(1 * MSEC)
        daemon = node._make_daemon_task("d", TaskKind.KDAEMON, 0)
        # Queue two bursts on cpu0 (one runs, one queues), then migrate.
        node.scheduler.activate_daemon(daemon, 0, 500 * USEC)
        node.scheduler.activate_daemon(daemon, 0, 500 * USEC)
        moved = node.scheduler.migrate_queued(0, 1)
        assert moved is True
        migrations = [r for r in sink.records if r[1] == Ev.SCHED_MIGRATE]
        assert len(migrations) == 1
        assert node.scheduler.migrations == 1

    def test_migrate_empty_queue_returns_false(self):
        node, _ = make_node(ncpus=2)
        node.start()
        assert node.scheduler.migrate_queued(0, 1) is False


class TestBookkeeping:
    def test_switch_counter_increments(self):
        node, _ = make_node()
        node.spawn_rank("r", 0, Spin())
        node.start()
        node.engine.run_until(1 * MSEC)
        assert node.scheduler.switches >= 1  # initial rank install

    def test_block_current_validates_owner(self):
        node, _ = make_node(ncpus=2)
        r0 = node.spawn_rank("r0", 0, Spin())
        node.spawn_rank("r1", 1, Spin())
        node.start()
        node.engine.run_until(1 * MSEC)
        with pytest.raises(RuntimeError):
            node.scheduler.block_current(node.cpus[1], r0)
