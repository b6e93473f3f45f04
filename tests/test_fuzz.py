"""Fuzz-style robustness: random kernel-event storms must keep invariants.

Hypothesis drives randomized node configurations and event mixes (daemon
storms, blocking I/O, injection, oversubscription); after each run the
kernel-wide invariants must hold: the simulation completes, trace records
balance, reconstruction conserves time, and every task lands in a legal
state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NoiseAnalysis, TraceMeta
from repro.simkernel import ComputeNode, NodeConfig, RankProgram, TaskKind
from repro.simkernel.distributions import from_stats
from repro.simkernel.injection import inject
from repro.simkernel.task import TaskState
from repro.tracing.events import FIRST_POINT_EVENT, Flag
from repro.tracing.tracer import Tracer
from repro.util.units import MSEC


class MixedProgram(RankProgram):
    """Randomly computes, reads, writes, or blocks briefly."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def step(self, node, task):
        roll = self.rng.random()
        if roll < 0.08:
            node.net.nfs_read(task, then=lambda: self._go(node, task))
        elif roll < 0.16:
            node.net.nfs_write(task, then=lambda: self._go(node, task))
        else:
            self._go(node, task)

    def _go(self, node, task):
        burst = int(self.rng.integers(100_000, 4_000_000))
        node.continue_compute(task, burst)


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    ncpus=st.integers(min_value=1, max_value=4),
    oversubscribe=st.booleans(),
    daemon_rate=st.integers(min_value=0, max_value=300),
    inject_rate=st.integers(min_value=0, max_value=500),
    nohz=st.booleans(),
    deprioritize=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_random_storms_keep_invariants(
    seed, ncpus, oversubscribe, daemon_rate, inject_rate, nohz, deprioritize
):
    node = ComputeNode(
        NodeConfig(
            ncpus=ncpus,
            seed=seed,
            nohz_idle=nohz,
            deprioritize_user_daemons=deprioritize,
        )
    )
    tracer = Tracer(node)
    tracer.attach()
    ranks = [
        node.spawn_rank(f"r{i}", i % ncpus, MixedProgram(seed + i))
        for i in range(ncpus + (1 if oversubscribe else 0))
    ]
    for rank in ranks:
        node.mm.set_fault_rate(rank, 300)
    if daemon_rate:
        node.add_daemon(
            "stormd",
            TaskKind.UDAEMON,
            rate_per_sec=daemon_rate,
            service=from_stats(1_000, 20_000, 500_000),
            cpu="random",
        )
    if inject_rate:
        inject(node, inject_rate, 3_000, pattern="poisson")

    node.run(150 * MSEC)
    trace = tracer.finish()

    # 1. Trace records balance (ENTRY vs EXIT, modulo truncation depth).
    records = trace.records()
    paired = records[records["event"] < FIRST_POINT_EVENT]
    entries = int((paired["flag"] == Flag.ENTRY).sum())
    exits = int((paired["flag"] == Flag.EXIT).sum())
    assert 0 <= entries - exits <= 6 * ncpus

    # 2. Reconstruction invariants.
    analysis = NoiseAnalysis(trace, meta=TraceMeta.from_node(node))
    for act in analysis.activities:
        assert 0 <= act.self_ns <= act.total_ns
        assert analysis.start_ts <= act.start <= analysis.end_ts

    # 3. Noise bounded by CPU time.
    assert 0 <= analysis.total_noise_ns() <= analysis.span_ns * ncpus

    # 4. Tasks end in legal states with consistent placement.
    for task in node.tasks.values():
        assert task.state in (
            TaskState.RUNNING,
            TaskState.RUNNABLE,
            TaskState.BLOCKED,
        )
        if task.state == TaskState.RUNNING and task.is_application:
            assert task.cpu is not None
        if task.state == TaskState.BLOCKED:
            assert task.cpu is None or task.is_daemon

    # 5. Application ranks made progress (no deadlock/starvation).
    assert all(r.total_cpu_ns > 0 for r in ranks)
