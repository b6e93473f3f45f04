"""Synthetic workloads: controlled applications for methodology studies.

Unlike the Sequoia models (calibrated to reproduce the paper's case study),
these are *instruments*: a bulk-synchronous application with a chosen
granularity whose iteration times can be read back directly, and
:class:`SpinProgram`, the uninterrupted user-mode rank that FTQ runs.
They drive the noise-injection sensitivity experiments (how much does
iteration time dilate under a given noise profile?) and the cluster study.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.simkernel.config import NodeConfig
from repro.simkernel.node import ComputeNode, RankProgram
from repro.simkernel.task import Task
from repro.workloads.base import Workload
from repro.workloads.mpi import Barrier


class SpinProgram(RankProgram):
    """Uninterrupted user-mode compute, forever (FTQ-like)."""

    def __init__(self, chunk_ns: int = 10_000_000) -> None:
        if chunk_ns <= 0:
            raise ValueError("chunk must be positive")
        self.chunk_ns = chunk_ns

    def step(self, node: ComputeNode, task: Task) -> None:
        node.continue_compute(task, self.chunk_ns)


class _BSPProgram(RankProgram):
    def __init__(self, workload: "BSPWorkload") -> None:
        self.workload = workload

    def step(self, node: ComputeNode, task: Task) -> None:
        wl = self.workload
        wl.barrier.arrive(task, then=lambda: self._next(node, task))

    def _next(self, node: ComputeNode, task: Task) -> None:
        wl = self.workload
        if task.pid == wl.ranks[0].pid:
            # Rank 0 timestamps each release: one entry per iteration.
            wl.iteration_marks.append(node.engine.now)
        node.continue_compute(task, wl.granularity_ns)


class BSPWorkload(Workload):
    """Bulk-synchronous: every rank computes ``granularity_ns``, then all
    synchronize at a barrier.  Iteration times are observable directly —
    the difference between consecutive barrier releases — so noise impact
    is a *measurement*, not a projection."""

    name = "bsp"

    def __init__(self, granularity_ns: int, fault_rate: float = 0.0) -> None:
        if granularity_ns <= 0:
            raise ValueError("granularity must be positive")
        self.granularity_ns = granularity_ns
        self.fault_rate = fault_rate
        self.ranks: List[Task] = []
        self.barrier: Optional[Barrier] = None
        #: Timestamps of barrier releases (rank 0's view).
        self.iteration_marks: List[int] = []

    def build_node(self, seed: int = 0, ncpus: int = 8) -> ComputeNode:
        return ComputeNode(NodeConfig(ncpus=ncpus, seed=seed))

    def install(self, node: ComputeNode) -> List[Task]:
        program = _BSPProgram(self)
        self.ranks = [
            node.spawn_rank(f"bsp.{i}", i, program)
            for i in range(node.config.ncpus)
        ]
        for task in self.ranks:
            node.mm.set_fault_rate(task, self.fault_rate)
        self.barrier = Barrier(node, self.ranks)
        return self.ranks

    # ------------------------------------------------------------------
    def iteration_times(self) -> np.ndarray:
        """Measured iteration durations (ns), one per completed iteration."""
        marks = np.asarray(self.iteration_marks, dtype=np.int64)
        if marks.size < 2:
            return np.empty(0, dtype=np.int64)
        return np.diff(marks)

    def mean_slowdown(self) -> float:
        """Mean iteration time over the ideal (noise-free) iteration."""
        times = self.iteration_times()
        if times.size == 0:
            return 1.0
        return float(times.mean() / self.granularity_ns)
