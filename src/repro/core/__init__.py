"""The paper's contribution: quantitative per-event OS noise analysis."""

from repro.core.analysis import NoiseAnalysis, binned_noise_ns
from repro.core.chart import SyntheticNoiseChart, build_interruptions
from repro.core.cluster import ClusterStudy, NodeRun
from repro.core.compare import FtqComparison, compare_ftq
from repro.core.disambiguate import (
    AmbiguousPair,
    CompositionFinding,
    find_ambiguous_pairs,
    find_composed,
    quantum_composition,
)
from repro.core.histogram import (
    Histogram,
    duration_histogram,
    spread_ratio,
    tail_index,
)
from repro.core.model import (
    Activity,
    ActivityTable,
    BREAKDOWN_CATEGORIES,
    CATEGORY_CODE,
    CATEGORY_ORDER,
    Interruption,
    NoiseCategory,
    PREEMPT_EVENT,
    TraceMeta,
)
from repro.core.noise_model import (
    NoiseProfile,
    NoiseSource,
    fit_noise_profile,
)
from repro.core.phases import (
    Phase,
    phase_stats,
    split_phases,
)
from repro.core.regress import (
    EventDelta,
    ProfileComparison,
    Verdict,
    compare_profiles,
)
from repro.core.sweep import MetricSummary, SeedSweep
from repro.core.timeline import StateInterval, TaskTimeline
from repro.core.scalability import (
    ScalabilityPoint,
    ablated_samples,
    per_interval_noise_samples,
    project_slowdown,
    resonance_scan,
)

__all__ = [
    "NoiseAnalysis",
    "binned_noise_ns",
    "SyntheticNoiseChart",
    "build_interruptions",
    "ClusterStudy",
    "NodeRun",
    "FtqComparison",
    "compare_ftq",
    "AmbiguousPair",
    "CompositionFinding",
    "find_ambiguous_pairs",
    "find_composed",
    "quantum_composition",
    "Histogram",
    "duration_histogram",
    "spread_ratio",
    "tail_index",
    "Activity",
    "ActivityTable",
    "BREAKDOWN_CATEGORIES",
    "CATEGORY_CODE",
    "CATEGORY_ORDER",
    "Interruption",
    "NoiseCategory",
    "PREEMPT_EVENT",
    "TraceMeta",
    "StateInterval",
    "TaskTimeline",
    "EventDelta",
    "ProfileComparison",
    "Verdict",
    "compare_profiles",
    "MetricSummary",
    "SeedSweep",
    "NoiseProfile",
    "NoiseSource",
    "fit_noise_profile",
    "Phase",
    "phase_stats",
    "split_phases",
    "ScalabilityPoint",
    "ablated_samples",
    "per_interval_noise_samples",
    "project_slowdown",
    "resonance_scan",
]
