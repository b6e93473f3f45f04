"""Unit tests for node assembly: determinism, construction guards, daemons."""

import numpy as np
import pytest

from repro.simkernel import ComputeNode, NodeConfig, RankProgram, TaskKind
from repro.simkernel.distributions import Constant
from repro.tracing.events import Ev, ListSink
from repro.util.units import MSEC, SEC


class Spin(RankProgram):
    def step(self, node, task):
        node.continue_compute(task, 5 * MSEC)


def traced_run(seed, duration=300 * MSEC):
    node = ComputeNode(NodeConfig(ncpus=2, seed=seed))
    sink = ListSink()
    node.attach_sink(sink)
    t = node.spawn_rank("r", 0, Spin())
    node.mm.set_fault_rate(t, 500)
    node.add_daemon("eventd", TaskKind.UDAEMON, 5.0, Constant(2000))
    node.run(duration)
    return sink.as_array()


class TestDeterminism:
    def test_same_seed_identical_trace(self):
        a = traced_run(seed=33)
        b = traced_run(seed=33)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        a = traced_run(seed=33)
        b = traced_run(seed=34)
        assert not np.array_equal(a, b)


class TestConstructionGuards:
    def test_spawn_after_start_fails(self):
        node = ComputeNode(NodeConfig(ncpus=1))
        node.start()
        with pytest.raises(RuntimeError):
            node.spawn_rank("late", 0, Spin())

    def test_cpu_index_validated(self):
        node = ComputeNode(NodeConfig(ncpus=2))
        with pytest.raises(ValueError):
            node.spawn_rank("r", 5, Spin())

    def test_negative_run_duration(self):
        node = ComputeNode(NodeConfig(ncpus=1))
        with pytest.raises(ValueError):
            node.run(-1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NodeConfig(ncpus=0)
        with pytest.raises(ValueError):
            NodeConfig(hz=0)
        with pytest.raises(ValueError):
            NodeConfig(napi_poll_prob=1.5)

    def test_pid_allocation_convention(self):
        node = ComputeNode(NodeConfig(ncpus=2))
        rank = node.spawn_rank("r", 0, Spin())
        daemon = node.add_daemon("d", TaskKind.UDAEMON, 1.0, Constant(1000))
        assert rank.pid >= 1000
        assert 100 <= daemon.pid < 1000
        assert rank.is_application and not rank.is_daemon
        assert daemon.is_daemon and not daemon.is_application


class TestContinuationGuards:
    def test_continue_compute_rejects_zero(self):
        node = ComputeNode(NodeConfig(ncpus=1))

        class Bad(RankProgram):
            def step(self, prog_node, task):
                prog_node.continue_compute(task, 0)

        node.spawn_rank("r", 0, Bad())
        with pytest.raises(ValueError):
            node.run(10 * MSEC)

    def test_program_must_make_progress(self):
        node = ComputeNode(NodeConfig(ncpus=1))

        class Stalls(RankProgram):
            def step(self, prog_node, task):
                pass  # does nothing: must be caught

        node.spawn_rank("r", 0, Stalls())
        with pytest.raises(RuntimeError):
            node.run(10 * MSEC)


class TestDaemons:
    def test_driver_activates_at_rate(self):
        node = ComputeNode(NodeConfig(ncpus=1, seed=3))
        sink = ListSink()
        node.attach_sink(sink)
        node.spawn_rank("r", 0, Spin())
        node.add_daemon("d", TaskKind.UDAEMON, 50.0, Constant(3000))
        node.run(1 * SEC)
        driver = node.drivers[0]
        assert 30 <= driver.activations <= 75

    def test_zero_rate_never_activates(self):
        node = ComputeNode(NodeConfig(ncpus=1))
        node.add_daemon("d", TaskKind.UDAEMON, 0.0, Constant(3000))
        node.run(300 * MSEC)
        assert node.drivers[0].activations == 0

    def test_daemon_rate_validation(self):
        node = ComputeNode(NodeConfig(ncpus=1))
        with pytest.raises(ValueError):
            node.add_daemon("d", TaskKind.UDAEMON, -1.0, Constant(1))

    def test_fixed_cpu_daemon(self):
        node = ComputeNode(NodeConfig(ncpus=2, seed=5))
        sink = ListSink()
        node.attach_sink(sink)
        node.add_daemon("d", TaskKind.UDAEMON, 100.0, Constant(2000), cpu=1)
        node.run(300 * MSEC)
        switches = [r for r in sink.records if r[1] == Ev.SCHED_SWITCH]
        assert switches
        assert all(r[2] == 1 for r in switches)

    def test_rpciod_per_cpu(self):
        node = ComputeNode(NodeConfig(ncpus=4))
        assert len(node.rpciod) == 4
        names = {t.name for t in node.rpciod}
        assert names == {"rpciod/0", "rpciod/1", "rpciod/2", "rpciod/3"}


class TestStats:
    def test_total_kernel_ns_positive_after_run(self):
        node = ComputeNode(NodeConfig(ncpus=1))
        node.spawn_rank("r", 0, Spin())
        node.run(200 * MSEC)
        assert node.total_kernel_ns() > 0
