"""Node configuration: structure knobs + per-activity duration models.

The kernel *mechanisms* (tick, softirqs, scheduler, NFS path) are generic;
what differs between workloads is how long each activity takes and how often
workload-driven events occur.  :class:`ActivityModels` collects the duration
models (the per-application instances are built from the paper's tables by
:mod:`repro.workloads.profiles`); :class:`NodeConfig` collects the structural
parameters of the machine, which default to the paper's testbed: 8 cores,
HZ=100 (Tables V/VI show 100 timer events/sec), NFS-only I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simkernel.distributions import DurationModel, from_stats
from repro.simkernel.memory import PageFaultModel
from repro.util.units import MSEC, USEC


@dataclass(frozen=True)
class ActivityModels:
    """Duration models for every kernel activity the node performs."""

    timer_irq: DurationModel
    timer_softirq: DurationModel
    rcu: DurationModel
    rebalance: DurationModel
    sched_call: DurationModel
    syscall: DurationModel
    page_fault: PageFaultModel
    net_irq: DurationModel
    net_rx: DurationModel
    net_tx: DurationModel
    rpciod_service: DurationModel
    nfs_latency: DurationModel

    @staticmethod
    def default() -> "ActivityModels":
        """Generic, paper-plausible defaults (FTQ-machine flavoured)."""
        return ActivityModels(
            timer_irq=from_stats(800, 2200, 30_000),
            timer_softirq=from_stats(200, 1800, 50_000),
            rcu=from_stats(100, 300, 5_000),
            rebalance=from_stats(300, 1800, 30_000),
            sched_call=from_stats(150, 300, 2_000, sigma=0.4),
            syscall=from_stats(200, 700, 10_000),
            page_fault=PageFaultModel(
                minor=from_stats(250, 2500, 30_000),
                major=from_stats(100_000, 400_000, 2_000_000),
                major_prob=0.001,
            ),
            net_irq=from_stats(500, 1500, 350_000),
            net_rx=from_stats(180, 3000, 100_000),
            net_tx=from_stats(170, 500, 9_000, sigma=0.4),
            rpciod_service=from_stats(2_000, 15_000, 500_000),
            nfs_latency=from_stats(50_000, 300_000, 5_000_000),
        )


@dataclass(frozen=True)
class NodeConfig:
    """Structural configuration of the simulated compute node."""

    #: Number of CPUs (the paper's testbed: dual quad-core Opteron).
    ncpus: int = 8
    #: Timer tick frequency; 100 in the paper's configuration.
    hz: int = 100
    #: Root seed for all random streams.
    seed: int = 0
    #: Per-activity duration models.
    models: ActivityModels = field(default_factory=ActivityModels.default)
    #: How often each CPU runs run_rebalance_domains.
    rebalance_interval_ns: int = 32 * MSEC
    #: Raise the RCU softirq every N ticks (1 = every tick).
    rcu_every_ticks: int = 1
    #: Indirect migration cost (cache warm-up) added to a migrated burst.
    migration_warmup_ns: int = 50 * USEC
    #: Round-robin timeslice between equal-priority application ranks
    #: sharing a CPU (oversubscription); CFS-flavoured default.
    timeslice_ns: int = 24 * MSEC
    #: Probability a receive completion is processed by NAPI polling
    #: (no fresh interrupt); tunes Table II's irq freq vs Table III's.
    napi_poll_prob: float = 0.1
    #: Probability an async write's completion raises an interrupt later.
    tx_completion_irq_prob: float = 0.5
    #: Where network interrupts land: "round-robin" (irqbalance-style,
    #: spreads the noise evenly) or "cpu0" (default-affinity-style, piles
    #: all I/O noise on one core — and one rank).
    irq_affinity: str = "round-robin"
    #: Tickless idle (NO_HZ): idle CPUs skip their periodic tick, like
    #: CONFIG_NO_HZ kernels (and like the lightweight kernels the paper
    #: compares against, which "do not take periodic timer interrupts").
    nohz_idle: bool = False
    #: Jones et al. / HPL-style scheduling policy (paper refs [23][24]):
    #: application ranks outrank *user* daemons, so eventd/python-style
    #: daemons run only when a CPU has nothing better to do.  Kernel
    #: daemons (rpciod) keep their priority.
    deprioritize_user_daemons: bool = False

    def __post_init__(self) -> None:
        if self.ncpus <= 0:
            raise ValueError("ncpus must be positive")
        if self.hz <= 0 or self.hz > 10_000:
            raise ValueError("hz must be in (0, 10000]")
        if not 0.0 <= self.napi_poll_prob <= 1.0:
            raise ValueError("napi_poll_prob must be a probability")
        if not 0.0 <= self.tx_completion_irq_prob <= 1.0:
            raise ValueError("tx_completion_irq_prob must be a probability")
        if self.irq_affinity not in ("round-robin", "cpu0"):
            raise ValueError("irq_affinity must be 'round-robin' or 'cpu0'")
