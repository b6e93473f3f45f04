"""Unit tests for the synthetic workloads (BSP + compute-bound)."""

import pytest

from repro.simkernel.injection import inject
from repro.util.units import MSEC, SEC, USEC
from repro.workloads.synthetic import (
    BSPWorkload,
    ComputeBoundWorkload,
    SpinProgram,
)


class TestComputeBound:
    def test_progress_accumulates(self):
        wl = ComputeBoundWorkload()
        node = wl.build_node(seed=1, ncpus=2)
        wl.install(node)
        node.run(500 * MSEC)
        # Nearly all CPU time is user compute (tiny kernel share).
        assert wl.progress_ns() > 0.97 * 2 * 500 * MSEC

    def test_fault_rate_applied(self):
        wl = ComputeBoundWorkload(fault_rate=500)
        node = wl.build_node(seed=1, ncpus=1)
        wl.install(node)
        node.run(500 * MSEC)
        assert node.mm.fault_count > 100

    def test_validation(self):
        with pytest.raises(ValueError):
            SpinProgram(0)


class TestBSP:
    def test_iterations_complete(self):
        wl = BSPWorkload(granularity_ns=1 * MSEC)
        node = wl.build_node(seed=2, ncpus=4)
        wl.install(node)
        node.run(200 * MSEC)
        times = wl.iteration_times()
        assert times.size > 100
        # Iterations take at least the granularity...
        assert times.min() >= 1 * MSEC
        # ...and on a quiet node barely more.
        assert wl.mean_slowdown() < 1.2

    def test_injected_noise_dilates_iterations(self):
        def slowdown(with_noise):
            wl = BSPWorkload(granularity_ns=1 * MSEC)
            node = wl.build_node(seed=3, ncpus=2)
            wl.install(node)
            if with_noise:
                # 200/s x 100 us on one CPU: every iteration waits for the
                # noisiest rank (the BSP amplification, measured directly).
                inject(node, 200, 100 * USEC, cpus=[0])
            node.run(1 * SEC)
            return wl.mean_slowdown()

        assert slowdown(True) > slowdown(False) + 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            BSPWorkload(0)

    def test_no_iterations_graceful(self):
        wl = BSPWorkload(granularity_ns=10 * SEC)
        node = wl.build_node(seed=4, ncpus=1)
        wl.install(node)
        node.run(50 * MSEC)
        assert wl.iteration_times().size == 0
        assert wl.mean_slowdown() == 1.0
