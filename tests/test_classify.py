"""Unit tests for the noise/service classification rules."""

import pytest

from repro.core import NoiseAnalysis
from repro.core.model import NoiseCategory
from repro.simkernel.task import TaskState
from repro.tracing.events import Ev
from recbuild import DAEMON, IDLE, RANK, TRACERD, RecordBuilder, meta


def classify(records):
    return NoiseAnalysis(records, meta=meta()).table


def noise_rows(table):
    return table.rows(table.mask(noise_only=True))


class TestCategoryMapping:
    def test_paper_categories(self):
        records = (
            RecordBuilder()
            .activity(100, 200, Ev.IRQ_TIMER)
            .activity(300, 400, Ev.SOFTIRQ_TIMER)
            .activity(500, 600, Ev.EXC_PAGE_FAULT)
            .activity(700, 800, Ev.SCHED_CALL)
            .activity(900, 1000, Ev.SOFTIRQ_SCHED)
            .activity(1100, 1200, Ev.SOFTIRQ_RCU)
            .activity(1300, 1400, Ev.IRQ_NET)
            .activity(1500, 1600, Ev.TASKLET_NET_RX)
            .activity(1700, 1800, Ev.TASKLET_NET_TX)
            .activity(1900, 2000, Ev.SYSCALL)
            .build()
        )
        acts = classify(records).rows()
        by_name = {a.name: a.category for a in acts}
        assert by_name["timer_interrupt"] == NoiseCategory.PERIODIC
        assert by_name["run_timer_softirq"] == NoiseCategory.PERIODIC
        assert by_name["page_fault"] == NoiseCategory.PAGE_FAULT
        assert by_name["schedule"] == NoiseCategory.SCHEDULING
        assert by_name["run_rebalance_domains"] == NoiseCategory.SCHEDULING
        assert by_name["rcu_process_callbacks"] == NoiseCategory.SCHEDULING
        assert by_name["net_interrupt"] == NoiseCategory.IO
        assert by_name["net_rx_action"] == NoiseCategory.IO
        assert by_name["net_tx_action"] == NoiseCategory.IO
        assert by_name["syscall"] == NoiseCategory.SERVICE


class TestNoiseRules:
    def test_activity_over_running_rank_is_noise(self):
        records = RecordBuilder().activity(100, 200, Ev.IRQ_TIMER, pid=RANK).build()
        acts = classify(records).rows()
        assert acts[0].is_noise

    def test_syscall_is_service_not_noise(self):
        records = RecordBuilder().activity(100, 200, Ev.SYSCALL, pid=RANK).build()
        table = classify(records)
        acts = table.rows()
        assert not acts[0].is_noise
        assert table.rows(table.mask(category=NoiseCategory.SERVICE)) == acts

    def test_activity_over_idle_is_not_noise(self):
        # The paper: a kernel interruption while the process is blocked
        # waiting for communication is not noise.
        records = RecordBuilder().activity(100, 200, Ev.IRQ_TIMER, pid=IDLE).build()
        acts = classify(records).rows()
        assert not acts[0].is_noise

    def test_preemption_window_is_noise(self):
        records = (
            RecordBuilder()
            .state(1000, RANK, TaskState.RUNNABLE)
            .switch(1000, RANK, DAEMON)
            .switch(3000, DAEMON, RANK)
            .state(3000, RANK, TaskState.RUNNING)
            .build()
        )
        noise = noise_rows(classify(records))
        assert len(noise) == 1
        assert noise[0].category == NoiseCategory.PREEMPTION

    def test_tracer_preemption_excluded(self):
        records = (
            RecordBuilder()
            .state(1000, RANK, TaskState.RUNNABLE)
            .switch(1000, RANK, TRACERD)
            .switch(3000, TRACERD, RANK)
            .state(3000, RANK, TaskState.RUNNING)
            .build()
        )
        table = classify(records)
        assert noise_rows(table) == []
        assert table.rows()[0].category == NoiseCategory.TRACER

    def test_tick_during_preemption_is_noise(self):
        # A timer interrupt nested in a daemon's run still delays the
        # displaced (runnable) rank: it is periodic noise.
        records = (
            RecordBuilder()
            .state(1000, RANK, TaskState.RUNNABLE)
            .switch(1000, RANK, DAEMON)
            .activity(1500, 1700, Ev.IRQ_TIMER, pid=DAEMON)
            .switch(3000, DAEMON, RANK)
            .state(3000, RANK, TaskState.RUNNING)
            .build()
        )
        noise = noise_rows(classify(records))
        names = {a.name for a in noise}
        assert "timer_interrupt" in names
        window = next(a for a in noise if a.category == NoiseCategory.PREEMPTION)
        # And the window's self time excludes the nested tick: no double count.
        assert window.self_ns == 2000 - 200

    def test_tick_over_daemon_without_displacement_not_noise(self):
        # Daemon runs over idle (nobody displaced): the nested tick delays
        # no application.
        records = (
            RecordBuilder()
            .switch(1000, IDLE, DAEMON)
            .activity(1500, 1700, Ev.IRQ_TIMER, pid=DAEMON)
            .switch(3000, DAEMON, IDLE)
            .build()
        )
        assert noise_rows(classify(records)) == []

    def test_blocked_rank_daemon_run_not_noise(self):
        records = (
            RecordBuilder()
            .state(1000, RANK, TaskState.BLOCKED)
            .switch(1000, RANK, DAEMON)
            .switch(3000, DAEMON, IDLE)
            .build()
        )
        assert noise_rows(classify(records)) == []
