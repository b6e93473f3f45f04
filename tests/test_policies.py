"""Tests for the kernel-policy knobs: NO_HZ idle and daemon priorities."""

from repro.core import NoiseAnalysis, NoiseCategory, TraceMeta
from repro.simkernel import ComputeNode, NodeConfig, RankProgram, TaskKind
from repro.simkernel.distributions import Constant, from_stats
from repro.tracing.events import Ev, Flag, ListSink, decode_switch
from repro.util.units import MSEC, SEC, USEC


class Spin(RankProgram):
    def step(self, node, task):
        node.continue_compute(task, 20 * MSEC)


class TestNohzIdle:
    def _tick_counts(self, nohz):
        node = ComputeNode(NodeConfig(ncpus=2, seed=6, nohz_idle=nohz))
        sink = ListSink()
        node.attach_sink(sink)
        node.spawn_rank("r", 0, Spin())  # cpu1 stays idle
        node.run(1 * SEC)
        per_cpu = [0, 0]
        for r in sink.records:
            if r[1] == Ev.IRQ_TIMER and r[3] == Flag.ENTRY:
                per_cpu[r[2]] += 1
        return per_cpu, node

    def test_idle_cpu_skips_ticks(self):
        with_ticks, _ = self._tick_counts(nohz=False)
        without, node = self._tick_counts(nohz=True)
        # Busy CPU unchanged, idle CPU silent.
        assert abs(with_ticks[0] - without[0]) <= 2
        assert with_ticks[1] >= 95
        assert without[1] <= 2
        assert node.timers.skipped_idle_ticks >= 95

    def test_busy_cpu_unaffected(self):
        counts, _ = self._tick_counts(nohz=True)
        assert counts[0] >= 95

    def test_ticks_resume_when_cpu_gets_work(self):
        node = ComputeNode(NodeConfig(ncpus=2, seed=6, nohz_idle=True))
        sink = ListSink()
        node.attach_sink(sink)
        node.spawn_rank("r0", 0, Spin())

        class LateStart(RankProgram):
            def step(self, prog_node, task):
                prog_node.continue_compute(task, 20 * MSEC)

        # cpu1 idle for the first half; then a daemon keeps it busy.
        node.add_daemon(
            "busy", TaskKind.KDAEMON, rate_per_sec=200,
            service=Constant(4 * MSEC), cpu=1,
        )
        node.run(1 * SEC)
        cpu1_ticks = sum(
            1
            for r in sink.records
            if r[1] == Ev.IRQ_TIMER and r[3] == Flag.ENTRY and r[2] == 1
        )
        # Daemon bursts make cpu1 non-idle often: many ticks fire.
        assert cpu1_ticks > 30


class TestDaemonPriorityPolicy:
    def _run(self, deprioritize):
        node = ComputeNode(
            NodeConfig(
                ncpus=1, seed=8, deprioritize_user_daemons=deprioritize
            )
        )
        sink = ListSink()
        node.attach_sink(sink)
        rank = node.spawn_rank("r", 0, Spin())
        daemon = node.add_daemon(
            "eventd", TaskKind.UDAEMON, rate_per_sec=50,
            service=Constant(5 * USEC), cpu=0,
        )
        node.run(1 * SEC)
        switches = [
            decode_switch(r[5]) for r in sink.records if r[1] == Ev.SCHED_SWITCH
        ]
        preempted = sum(
            1 for prev, nxt in switches if prev == rank.pid and nxt == daemon.pid
        )
        return node, rank, daemon, preempted

    def test_default_daemon_preempts_rank(self):
        node, rank, daemon, preempted = self._run(deprioritize=False)
        assert preempted > 10
        assert daemon.prio < rank.prio

    def test_deprioritized_daemon_never_preempts(self):
        node, rank, daemon, preempted = self._run(deprioritize=True)
        assert preempted == 0
        assert daemon.prio > rank.prio
        # The rank computed essentially uninterrupted by the daemon.
        assert rank.total_cpu_ns > 0.98 * SEC

    def test_deprioritized_daemon_runs_when_cpu_idles(self):
        node = ComputeNode(
            NodeConfig(ncpus=1, seed=9, deprioritize_user_daemons=True)
        )

        class BlockSoon(RankProgram):
            def __init__(self):
                self.steps = 0

            def step(self, prog_node, task):
                self.steps += 1
                if self.steps == 1:
                    prog_node.continue_compute(task, 100 * MSEC)
                else:
                    prog_node.block_rank(task)

        node.spawn_rank("r", 0, BlockSoon())
        daemon = node.add_daemon(
            "eventd", TaskKind.UDAEMON, rate_per_sec=50,
            service=Constant(5 * USEC), cpu=0,
        )
        node.run(1 * SEC)
        # Once the rank blocked, the waiting daemon got the CPU.
        assert daemon.wakeups > 0
        assert daemon.total_cpu_ns > 0

    def test_kernel_daemons_keep_priority(self):
        node = ComputeNode(
            NodeConfig(ncpus=1, seed=10, deprioritize_user_daemons=True)
        )
        kd = node.add_daemon(
            "kworker", TaskKind.KDAEMON, rate_per_sec=1, service=Constant(1000)
        )
        assert kd.prio == 50

    def test_preemption_noise_eliminated(self):
        from repro.tracing.tracer import Tracer

        def preemption_share(deprioritize):
            node = ComputeNode(
                NodeConfig(
                    ncpus=2, seed=11, deprioritize_user_daemons=deprioritize
                )
            )
            tracer = Tracer(node)
            tracer.attach()
            node.spawn_rank("r0", 0, Spin())
            node.spawn_rank("r1", 1, Spin())
            node.add_daemon(
                "python", TaskKind.UDAEMON, rate_per_sec=100,
                service=from_stats(50_000, 150_000, 1 * MSEC), cpu="random",
            )
            node.run(1 * SEC)
            analysis = NoiseAnalysis(
                tracer.finish(), meta=TraceMeta.from_node(node)
            )
            return analysis.breakdown_fractions()[NoiseCategory.PREEMPTION]

        assert preemption_share(False) > 0.5
        assert preemption_share(True) < 0.05
