"""FTQ — the Fixed Time Quantum micro-benchmark (Sottile & Minnich).

FTQ runs pure user-mode basic operations and counts how many complete in
each fixed time quantum; missing operations indirectly measure OS noise.
The paper uses it both as the thing being validated against (Section III-C,
Figure 1) and as the canvas for the disambiguation case studies (Figure 9).

:class:`FTQWorkload` runs an FTQ-like rank inside the simulated node;
:func:`ftq_output` then replays FTQ's per-quantum counting over the recorded
trace (see :func:`repro.core.compare.compare_ftq` for the machinery), giving
exactly the chart Figure 1a shows — while the same trace feeds the synthetic
noise chart of Figure 1b.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.analysis import NoiseAnalysis
from repro.core.compare import FtqComparison, compare_ftq
from repro.simkernel.node import ComputeNode
from repro.simkernel.task import Task, TaskKind
from repro.workloads.base import IoChatter, Workload
from repro.workloads.profiles import FTQ_MACHINE, SequoiaProfile
from repro.workloads.synthetic import SpinProgram
from repro.util.units import MSEC, USEC

#: Default FTQ parameters: 1 ms quantum, 1 us basic operation.
DEFAULT_QUANTUM_NS = 1 * MSEC
DEFAULT_OP_NS = 1 * USEC


class FTQWorkload(Workload):
    """FTQ on one CPU of an otherwise idle node.

    The machine keeps the background the paper's test box had: the periodic
    tick, occasional page faults (FTQ touches its counting buffers), an
    ``eventd`` user daemon (caught red-handed in Figure 1b), and a trickle
    of network chatter.
    """

    def __init__(
        self,
        profile: SequoiaProfile = FTQ_MACHINE,
        cpu: int = 0,
        quantum_ns: int = DEFAULT_QUANTUM_NS,
        op_ns: int = DEFAULT_OP_NS,
        eventd_rate: float = 3.0,
    ) -> None:
        self.profile = profile
        self.name = "FTQ"
        self.cpu = cpu
        self.quantum_ns = quantum_ns
        self.op_ns = op_ns
        self.eventd_rate = eventd_rate
        self.rank: Optional[Task] = None

    def build_node(self, seed: int = 0, ncpus: int = 8) -> ComputeNode:
        return ComputeNode(self.profile.node_config(seed=seed, ncpus=ncpus))

    def install(self, node: ComputeNode) -> List[Task]:
        from repro.simkernel.distributions import from_stats

        self.rank = node.spawn_rank("ftq", self.cpu, SpinProgram())
        node.mm.set_fault_model(self.rank, self.profile.fault_model_or_default())
        node.mm.set_fault_rate(self.rank, self.profile.phases[0].fault_rate)
        # The eventd daemon pinned near the FTQ cpu, as in Fig. 1b's
        # capture.  It wakes from software timers, so its preemptions ride
        # the tick exactly as Figure 2b shows: timer interrupt ->
        # run_timer_softirq -> schedule -> eventd -> schedule.
        node.add_daemon(
            "eventd",
            TaskKind.UDAEMON,
            rate_per_sec=self.eventd_rate,
            service=from_stats(1_200, 2_200, 15_000, sigma=0.3),
            cpu=self.cpu,
            via_timer=True,
        )
        chatter = IoChatter(node, self.profile.ack_rate)
        chatter.start()
        return [self.rank]


def ftq_output(
    analysis: NoiseAnalysis,
    cpu: int = 0,
    quantum_ns: int = DEFAULT_QUANTUM_NS,
    op_ns: int = DEFAULT_OP_NS,
    t0: Optional[int] = None,
    t1: Optional[int] = None,
) -> FtqComparison:
    """FTQ's indirect noise chart + the trace's direct chart, paired."""
    return compare_ftq(analysis, cpu, quantum_ns, op_ns, t0=t0, t1=t1)
