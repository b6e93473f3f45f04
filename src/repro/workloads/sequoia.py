"""Sequoia benchmark models: AMG, IRS, LAMMPS, SPHOT, UMT.

The paper runs the LLNL Sequoia benchmarks with 8 MPI tasks (one per core)
for several minutes each, and studies the *system*, not the applications.
Accordingly, each application is modeled by its kernel-interaction profile
(:mod:`repro.workloads.profiles`): compute-burst structure, page-fault
phases (LAMMPS init-heavy, AMG spread with accumulation bursts — Figure 5),
blocking NFS reads / async writes, barrier cadence, and — for UMT — the
Python helper processes that preempt ranks and keep the load balancer busy.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.simkernel.node import ComputeNode, RankProgram
from repro.simkernel.task import Task, TaskKind
from repro.workloads.base import IoChatter, Workload
from repro.workloads.mpi import Barrier
from repro.workloads.profiles import (
    SEQUOIA_PROFILES,
    PhaseSpec,
    SequoiaProfile,
)


class _RankState:
    __slots__ = ("next_read", "next_write", "next_barrier")

    def __init__(self) -> None:
        self.next_read = 0
        self.next_write = 0
        self.next_barrier = 0


class SequoiaRank(RankProgram):
    """One rank's program: compute bursts, NFS I/O, barrier iterations."""

    def __init__(self, workload: "SequoiaWorkload") -> None:
        self.workload = workload
        self._state: Dict[int, _RankState] = {}

    def _get_state(self, node: ComputeNode, task: Task) -> _RankState:
        state = self._state.get(task.pid)
        if state is None:
            state = _RankState()
            rng = node.rng_for("workload")
            profile = self.workload.profile
            now = node.engine.now
            state.next_read = now + self._gap(rng, profile.read_rate)
            state.next_write = now + self._gap(rng, profile.write_rate)
            state.next_barrier = now + profile.barrier_interval_ns
            self._state[task.pid] = state
        return state

    @staticmethod
    def _gap(rng, rate_per_sec: float) -> int:
        if rate_per_sec <= 0:
            return 1 << 62  # effectively never
        return max(1, int(rng.exponential(1e9 / rate_per_sec)))

    def step(self, node: ComputeNode, task: Task) -> None:
        state = self._get_state(node, task)
        profile = self.workload.profile
        now = node.engine.now
        rng = node.rng_for("workload")

        if now >= state.next_barrier:
            state.next_barrier = now + profile.barrier_interval_ns
            self.workload.barrier.arrive(
                task, then=lambda: self._continue(node, task)
            )
            return
        if now >= state.next_read:
            state.next_read = now + self._gap(rng, profile.read_rate)
            node.net.nfs_read(task, then=lambda: self._continue(node, task))
            return
        if now >= state.next_write:
            state.next_write = now + self._gap(rng, profile.write_rate)
            node.net.nfs_write(task, then=lambda: self._continue(node, task))
            return
        self._compute(node, task)

    def _continue(self, node: ComputeNode, task: Task) -> None:
        self._compute(node, task)

    def _compute(self, node: ComputeNode, task: Task) -> None:
        rng = node.rng_for("workload")
        mean = self.workload.profile.burst_mean_ns
        burst = max(50_000, int(rng.lognormal(0.0, 0.45) * mean))
        node.continue_compute(task, burst)


class PhaseController:
    """Applies the profile's page-fault-rate phases at the right times.

    Phases are expressed as fractions of a *nominal run length*; the
    controller schedules absolute-time rate changes for every rank
    (Figure 5's fault-placement patterns come from this).
    """

    def __init__(
        self,
        node: ComputeNode,
        tasks: List[Task],
        phases: List[PhaseSpec],
        nominal_ns: int,
    ) -> None:
        self.node = node
        self.tasks = tasks
        self.phases = list(phases)
        self.nominal_ns = nominal_ns
        self.applied: List[float] = []

    def start(self) -> None:
        base = self.node.engine.now
        for phase in self.phases:
            at = base + int(phase.begin * self.nominal_ns)
            self.node.engine.schedule(
                max(at, base), self._make_apply(phase.fault_rate)
            )
        # After the last phase the pattern repeats (the paper's several-
        # minute runs iterate; our nominal window tiles).
        self.node.engine.schedule(
            base + self.nominal_ns, self._repeat(base + self.nominal_ns)
        )

    def _make_apply(self, rate: float):
        def apply() -> None:
            self.applied.append(rate)
            for task in self.tasks:
                self.node.mm.set_fault_rate(task, rate)
            # Phase-change marker (arg = rate) so offline analysis can
            # segment the trace by workload phase.
            if self.tasks:
                self.node.emit_marker(self.tasks[0], int(rate))

        return apply

    def _repeat(self, base: int):
        def again() -> None:
            for phase in self.phases:
                at = base + int(phase.begin * self.nominal_ns)
                self.node.engine.schedule(
                    max(at, base), self._make_apply(phase.fault_rate)
                )
            self.node.engine.schedule(
                base + self.nominal_ns, self._repeat(base + self.nominal_ns)
            )

        return again


class SequoiaWorkload(Workload):
    """One Sequoia application on an 8-core node.

    Parameters
    ----------
    profile:
        Application profile (or name: ``"AMG"``, ``"IRS"``, ``"LAMMPS"``,
        ``"SPHOT"``, ``"UMT"``).
    nominal_ns:
        The run length the page-fault phase plan is scaled to.  Pass the
        duration you intend to simulate so init/fini phases land where
        Figure 5 shows them.
    """

    def __init__(self, profile, nominal_ns: int = 10_000_000_000) -> None:
        if isinstance(profile, str):
            try:
                profile = SEQUOIA_PROFILES[profile.upper()]
            except KeyError:
                raise ValueError(
                    f"unknown Sequoia benchmark {profile!r}; "
                    f"choose from {sorted(SEQUOIA_PROFILES)}"
                ) from None
        self.profile: SequoiaProfile = profile
        self.name = profile.name
        self.nominal_ns = nominal_ns
        self.barrier: Optional[Barrier] = None
        self.ranks: List[Task] = []
        self.chatter: Optional[IoChatter] = None
        self.phase_controller: Optional[PhaseController] = None

    # ------------------------------------------------------------------
    def build_node(self, seed: int = 0, ncpus: int = 8) -> ComputeNode:
        # Mix the application name into the seed: two different apps run
        # with the same user seed must not replay identical random streams
        # (their per-activity draws would otherwise be scaled copies).
        import zlib

        derived = (seed * 2654435761 + zlib.crc32(self.profile.name.encode())) % (
            2**31
        )
        return ComputeNode(self.profile.node_config(seed=derived, ncpus=ncpus))

    def install(self, node: ComputeNode) -> List[Task]:
        profile = self.profile
        program = SequoiaRank(self)
        self.ranks = [
            node.spawn_rank(f"{profile.name.lower()}.{i}", i, program)
            for i in range(node.config.ncpus)
        ]
        for task in self.ranks:
            node.mm.set_fault_model(task, profile.fault_model_or_default())
            node.mm.set_fault_rate(task, profile.phases[0].fault_rate)
        self.barrier = Barrier(node, self.ranks)
        self.chatter = IoChatter(node, profile.ack_rate)
        self.chatter.start()
        self.phase_controller = PhaseController(
            node, self.ranks, list(profile.phases), self.nominal_ns
        )
        self.phase_controller.start()
        # UMT's Python helper processes.
        for i in range(profile.python_daemons):
            node.add_daemon(
                f"python/{i}",
                TaskKind.UDAEMON,
                rate_per_sec=profile.python_rate,
                service=profile.python_service,
                cpu="random",
            )
        return self.ranks
