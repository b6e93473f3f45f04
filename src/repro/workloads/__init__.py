"""Workload models: FTQ and the five Sequoia applications."""

from repro.workloads.base import IoChatter, Workload
from repro.workloads.ftq import (
    DEFAULT_OP_NS,
    DEFAULT_QUANTUM_NS,
    FTQWorkload,
    ftq_output,
)
from repro.workloads.ftq_host import HostFtqResult, run_host_ftq
from repro.workloads.mpi import Barrier
from repro.workloads.profiles import (
    AMG,
    FTQ_MACHINE,
    IRS,
    LAMMPS,
    SEQUOIA_PROFILES,
    SPHOT,
    UMT,
    SequoiaProfile,
    TableRow,
)
from repro.workloads.sequoia import SequoiaWorkload
from repro.workloads.synthetic import BSPWorkload, SpinProgram

__all__ = [
    "IoChatter",
    "Workload",
    "DEFAULT_OP_NS",
    "DEFAULT_QUANTUM_NS",
    "FTQWorkload",
    "ftq_output",
    "HostFtqResult",
    "run_host_ftq",
    "Barrier",
    "AMG",
    "FTQ_MACHINE",
    "IRS",
    "LAMMPS",
    "SEQUOIA_PROFILES",
    "SPHOT",
    "UMT",
    "SequoiaProfile",
    "TableRow",
    "SequoiaWorkload",
    "BSPWorkload",
    "SpinProgram",
]
