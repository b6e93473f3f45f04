"""Unit tests for nested-activity reconstruction on hand-built records."""

import pytest

from repro.core.engine import is_window
from repro.core.model import PREEMPT_EVENT, TRACER_PREEMPT_EVENT
from repro.simkernel.task import TaskState
from repro.tracing.events import Ev
from recbuild import DAEMON, IDLE, RANK, TRACERD, RecordBuilder, engine_table


def activities(records, end_ts, strict=False):
    """Kernel activity rows of one engine pass, in table order."""
    table = engine_table(records, end_ts, strict=strict)
    return table.rows(~is_window(table.data["event"]))


def windows(records, end_ts):
    """Preemption window rows of one engine pass, in table order."""
    table = engine_table(records, end_ts)
    return table.rows(is_window(table.data["event"]))


class TestPairedReconstruction:
    def test_simple_activity(self):
        records = RecordBuilder().activity(100, 600, Ev.IRQ_TIMER).build()
        acts = activities(records, end_ts=1000)
        assert len(acts) == 1
        act = acts[0]
        assert act.name == "timer_interrupt"
        assert act.total_ns == 500 and act.self_ns == 500
        assert act.depth == 0 and not act.truncated

    def test_nested_self_time_attribution(self):
        # Page fault 100..1100; timer irq nests 300..500.
        records = (
            RecordBuilder()
            .entry(100, Ev.EXC_PAGE_FAULT)
            .activity(300, 500, Ev.IRQ_TIMER)
            .exit(1100, Ev.EXC_PAGE_FAULT)
            .build()
        )
        acts = activities(records, end_ts=2000)
        by_name = {a.name: a for a in acts}
        fault = by_name["page_fault"]
        irq = by_name["timer_interrupt"]
        assert fault.total_ns == 1000
        assert fault.self_ns == 800  # 200 ns went to the nested irq
        assert irq.self_ns == 200 and irq.depth == 1
        assert fault.depth == 0

    def test_double_nesting(self):
        records = (
            RecordBuilder()
            .entry(0, Ev.SYSCALL)
            .entry(100, Ev.EXC_PAGE_FAULT)
            .activity(150, 250, Ev.IRQ_TIMER)
            .exit(400, Ev.EXC_PAGE_FAULT)
            .exit(1000, Ev.SYSCALL)
            .build()
        )
        acts = activities(records, end_ts=2000)
        by_name = {a.name: a for a in acts}
        assert by_name["syscall"].self_ns == 1000 - 300
        assert by_name["page_fault"].self_ns == 300 - 100
        assert by_name["timer_interrupt"].self_ns == 100
        # Self times sum to the outer wall time: nothing double counted.
        assert sum(a.self_ns for a in acts) == 1000

    def test_truncated_at_trace_end(self):
        records = RecordBuilder().entry(500, Ev.SYSCALL).build()
        acts = activities(records, end_ts=800)
        assert len(acts) == 1
        assert acts[0].truncated
        assert acts[0].total_ns == 300

    def test_unmatched_exit_skipped(self):
        records = RecordBuilder().exit(100, Ev.IRQ_TIMER).build()
        assert activities(records, end_ts=200) == []

    def test_unmatched_exit_strict_raises(self):
        records = RecordBuilder().exit(100, Ev.IRQ_TIMER).build()
        with pytest.raises(ValueError):
            activities(records, end_ts=200, strict=True)

    def test_per_cpu_streams_independent(self):
        records = (
            RecordBuilder()
            .entry(100, Ev.IRQ_TIMER, cpu=0)
            .entry(150, Ev.IRQ_NET, cpu=1)
            .exit(250, Ev.IRQ_NET, cpu=1)
            .exit(300, Ev.IRQ_TIMER, cpu=0)
            .build()
        )
        acts = activities(records, end_ts=1000)
        by_name = {a.name: a for a in acts}
        # Same-time overlap on different CPUs is NOT nesting.
        assert by_name["timer_interrupt"].self_ns == 200
        assert by_name["net_interrupt"].self_ns == 100
        assert by_name["timer_interrupt"].depth == 0
        assert by_name["net_interrupt"].depth == 0

    def test_point_events_ignored(self):
        records = (
            RecordBuilder()
            .state(50, RANK, TaskState.RUNNING)
            .activity(100, 200, Ev.IRQ_TIMER)
            .build()
        )
        acts = activities(records, end_ts=300)
        assert len(acts) == 1


class TestPreemptionWindows:
    def _preempt_records(self, daemon=DAEMON, builder=None):
        # rank preempted at t=1000, daemon runs until 3000, rank restored.
        return (
            (builder or RecordBuilder())
            .state(900, daemon, TaskState.RUNNABLE)
            .state(1000, RANK, TaskState.RUNNABLE)
            .switch(1000, RANK, daemon)
            .state(1000, daemon, TaskState.RUNNING)
            .state(3000, daemon, TaskState.BLOCKED)
            .switch(3000, daemon, RANK)
            .state(3000, RANK, TaskState.RUNNING)
            .build()
        )

    def test_window_detected(self):
        found = windows(self._preempt_records(), end_ts=5000)
        assert len(found) == 1
        w = found[0]
        assert w.event == PREEMPT_EVENT
        assert (w.start, w.end) == (1000, 3000)
        assert w.displaced_pid == RANK
        assert w.name == "preempt:rpciod/0"

    def test_blocked_rank_gives_no_window(self):
        records = (
            RecordBuilder()
            .state(1000, RANK, TaskState.BLOCKED)
            .switch(1000, RANK, DAEMON)
            .switch(3000, DAEMON, IDLE)
            .build()
        )
        assert windows(records, end_ts=5000) == []

    def test_tracer_daemon_window_tagged(self):
        found = windows(self._preempt_records(daemon=TRACERD), end_ts=5000)
        assert len(found) == 1
        assert found[0].event == TRACER_PREEMPT_EVENT

    def test_daemon_chain_keeps_displacement(self):
        records = (
            RecordBuilder()
            .state(1000, RANK, TaskState.RUNNABLE)
            .switch(1000, RANK, DAEMON)
            .switch(2000, DAEMON, TRACERD)
            .switch(2500, TRACERD, RANK)
            .state(2500, RANK, TaskState.RUNNING)
            .build()
        )
        found = windows(records, end_ts=5000)
        assert len(found) == 2
        assert found[0].end == 2000 and found[1].start == 2000
        assert all(w.displaced_pid == RANK for w in found)

    def test_truncated_window(self):
        records = (
            RecordBuilder()
            .state(1000, RANK, TaskState.RUNNABLE)
            .switch(1000, RANK, DAEMON)
            .build()
        )
        found = windows(records, end_ts=4000)
        assert len(found) == 1
        assert found[0].truncated and found[0].end == 4000

    def test_nested_kact_subtracted_from_window_self(self):
        builder = RecordBuilder().activity(1500, 1900, Ev.IRQ_TIMER, pid=DAEMON)
        records = self._preempt_records(builder=builder)
        found = windows(records, end_ts=5000)
        assert found[0].total_ns == 2000
        assert found[0].self_ns == 1600
