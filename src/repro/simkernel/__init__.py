"""Simulated Linux compute-node substrate.

The paper instruments a real Linux kernel; this package provides the
equivalent substrate for a pure-Python reproduction: a deterministic
discrete-event simulation of an HPC compute node whose kernel emits the same
event vocabulary through the same structural mechanisms (DESIGN.md §2-3).
"""

from repro.simkernel.config import ActivityModels, NodeConfig
from repro.simkernel.distributions import (
    Bimodal,
    Constant,
    DurationModel,
    Mixture,
    ShiftedLogNormal,
    Uniform,
    from_stats,
)
from repro.simkernel.engine import Engine
from repro.simkernel.injection import InjectionSpec, NoiseInjector, inject
from repro.simkernel.memory import PageFaultModel
from repro.simkernel.node import ComputeNode, RankProgram
from repro.simkernel.task import Task, TaskKind, TaskState

__all__ = [
    "ActivityModels",
    "NodeConfig",
    "Bimodal",
    "Constant",
    "DurationModel",
    "Mixture",
    "ShiftedLogNormal",
    "Uniform",
    "from_stats",
    "Engine",
    "InjectionSpec",
    "NoiseInjector",
    "inject",
    "PageFaultModel",
    "ComputeNode",
    "RankProgram",
    "Task",
    "TaskKind",
    "TaskState",
]
