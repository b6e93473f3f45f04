"""Seed sweeps: run-to-run variation of noise statistics.

One seeded run is one sample of a stochastic system.  Before reading
anything into a 10 % delta between two configurations, a developer needs to
know the natural spread of the metric — this module runs a workload across
seeds and summarizes any metric's distribution (mean, std, a normal-theory
confidence interval).  EXPERIMENTS.md's tolerances were picked with this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.core.analysis import NoiseAnalysis


@dataclass(frozen=True)
class MetricSummary:
    name: str
    values: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def std(self) -> float:
        return float(self.values.std(ddof=1)) if len(self.values) > 1 else 0.0

    @property
    def cv(self) -> float:
        """Coefficient of variation (std/|mean|); 0 when mean is 0.

        The magnitude of the mean normalizes the spread — a negative-mean
        metric must not report a negative dispersion.
        """
        return self.std / abs(self.mean) if self.mean else 0.0

    def confidence_interval(self, z: float = 1.96) -> "tuple[float, float]":
        """Normal-approximation CI of the mean (default ~95 %).

        With a single sample the spread is unknowable, so the interval is
        infinitely wide — a one-run sweep must not masquerade as converged.
        """
        if len(self.values) < 2:
            return (-math.inf, math.inf)
        half = z * self.std / math.sqrt(len(self.values))
        return (self.mean - half, self.mean + half)

    def describe(self) -> str:
        low, high = self.confidence_interval()
        return (
            f"{self.name}: {self.mean:.4g} +- {self.std:.3g} "
            f"(cv {100 * self.cv:.1f} %, 95% CI [{low:.4g}, {high:.4g}], "
            f"n={len(self.values)})"
        )


class SeedSweep:
    """Analyses of the same workload under different seeds."""

    #: One-line execution report (runs, cache hits, wall time) set by
    #: :meth:`run`.
    exec_summary: str
    #: Machine-readable version of :attr:`exec_summary` (``--summary-json``):
    #: the plan's stats record plus ``failures`` and, with a store, this
    #: sweep's ``cache_hits``/``cache_misses``.
    exec_stats: dict

    def __init__(self, analyses: List[NoiseAnalysis]) -> None:
        if not analyses:
            raise ValueError("sweep needs at least one run")
        self.analyses = analyses

    @staticmethod
    def run(
        workload: str,
        duration_ns: int,
        seeds: Sequence[int],
        ncpus: int = 8,
        *,
        cache: Optional["object"] = None,
        progress: Optional[Callable] = None,
        backend: Optional["object"] = None,
        plan: Optional["object"] = None,
    ) -> "SeedSweep":
        """Run the workload once per seed and collect the analyses.

        ``workload`` is a name resolvable by :mod:`repro.exec` (``"FTQ"``,
        a Sequoia benchmark, a :func:`~repro.exec.register_workload` name,
        ``"module:attr"``).  ``backend`` (a
        :class:`repro.exec.DispatchBackend`) is where specs execute:
        in-process by default, or a
        :class:`repro.exec.LocalPoolBackend` to fan out across a process
        pool; results are bit-identical either way because each run is
        deterministic in its spec.  ``cache`` (a
        :class:`repro.exec.ShardedStore`) lets repeat sweeps skip
        simulation entirely.

        Sweeps execute through :meth:`repro.exec.SweepPlan.execute`:
        ``plan`` (a saved, journaled :class:`repro.exec.SweepPlan`) lets
        the sweep be interrupted and resumed — see
        ``docs/sweep-orchestration.md``; without one, the specs form an
        unjournaled one-shard plan that writes no file.

        Each unique spec is analysed once: a seed repeated in ``seeds``
        keeps its position in :attr:`analyses` (and in every
        :meth:`metric` array), but all of its positions hold one shared
        :class:`~repro.core.analysis.NoiseAnalysis`, which callers must
        treat as read-only.
        """
        from repro.exec import RunSpec, SerialBackend, SweepPlan

        specs = [
            RunSpec.make(workload, duration_ns, int(seed), ncpus)
            for seed in seeds
        ]
        if plan is None:
            plan = SweepPlan(specs)
        elif not plan.matches(specs):
            raise ValueError(
                "plan does not match this sweep's specs; "
                "re-plan or fix the arguments"
            )
        if backend is None:
            backend = SerialBackend()
        if progress is None and obs.enabled():
            # Observed long sweeps heartbeat by default (rate-limited).
            hb = obs.Heartbeat("runner", total=len(plan.specs))
            progress = lambda done, *_: hb.tick(done)
        hits0 = cache.hits if cache is not None else 0
        misses0 = cache.misses if cache is not None else 0
        with obs.span("sweep", workload=workload, runs=len(specs)):
            results = plan.execute(backend, cache, progress=progress)
            by_spec = {r.spec: r.analysis() for r in results}
            sweep = SeedSweep([by_spec[spec] for spec in specs])
        # A loaded plan.json holds unique specs only; count this
        # sweep's duplicates from what it asked for.
        stats = dict(plan.last_stats, failures=0,
                     duplicates=len(specs) - len(plan.specs))
        how = (
            f"{stats['workers']} workers" if stats["used_processes"]
            else "serial"
        )
        sweep.exec_summary = (
            f"{stats['runs']} runs: {stats['cached']} cached, "
            f"{stats['simulated']} simulated ({how}) "
            f"in {stats['wall_s']:.2f}s wall"
        )
        if cache is not None:
            stats["cache_hits"] = cache.hits - hits0
            stats["cache_misses"] = cache.misses - misses0
            sweep.exec_summary += (
                f"; cache {stats['cache_hits']} hits, "
                f"{stats['cache_misses']} misses"
            )
        sweep.exec_stats = stats
        return sweep

    # ------------------------------------------------------------------
    def metric(
        self, name: str, fn: Callable[[NoiseAnalysis], float]
    ) -> MetricSummary:
        """Evaluate any scalar metric across the sweep."""
        values = np.array([fn(a) for a in self.analyses], dtype=np.float64)
        return MetricSummary(name, values)

    def stat_metric(
        self, event: str, field: str = "freq"
    ) -> MetricSummary:
        """Spread of one table cell, e.g. ``('page_fault', 'avg')``."""
        if field not in ("freq", "avg", "max", "min", "total", "count"):
            raise ValueError(f"unknown stats field: {field!r}")
        return self.metric(
            f"{event}.{field}",
            lambda a: float(getattr(a.stats(event), field)),
        )

    def noise_fraction(self) -> MetricSummary:
        return self.metric("noise_fraction", lambda a: a.noise_fraction())

    def summary_table(self, events: Sequence[str]) -> str:
        lines = [self.noise_fraction().describe()]
        for event in events:
            lines.append(self.stat_metric(event, "freq").describe())
            lines.append(self.stat_metric(event, "avg").describe())
        return "\n".join(lines)
