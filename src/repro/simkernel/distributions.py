"""Service-time and inter-arrival distributions for kernel activities.

Every kernel activity in the simulated node (timer interrupt top half,
``run_timer_softirq``, page fault handler, ...) draws its duration from a
:class:`DurationModel`.  The paper characterizes each activity by a
``(min, avg, max)`` triple (Tables I-VI) plus a qualitative shape ("long-tail
density function", "bimodal", "compact").  :func:`from_stats` builds a
two-component mixture — a bulk shifted-lognormal that carries the mean, plus
a rare tail component that produces the paper's extreme maxima — so that the
*analyzer output*, not a hard-coded constant, reproduces the tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np


class DurationModel:
    """Base class: something that can sample a duration in nanoseconds."""

    def sample(self, rng: np.random.Generator) -> int:
        raise NotImplementedError

    def mean(self) -> float:
        """Analytic (or best-effort) expected value in nanoseconds."""
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(DurationModel):
    """A fixed duration.  Used for idealized activities in tests."""

    value_ns: int

    def __post_init__(self) -> None:
        if self.value_ns < 0:
            raise ValueError("duration must be non-negative")

    def sample(self, rng: np.random.Generator) -> int:
        return self.value_ns

    def mean(self) -> float:
        return float(self.value_ns)


@dataclass(frozen=True)
class Uniform(DurationModel):
    """Uniform duration on ``[low, high]`` nanoseconds."""

    low_ns: int
    high_ns: int

    def __post_init__(self) -> None:
        if not 0 <= self.low_ns <= self.high_ns:
            raise ValueError("need 0 <= low <= high")

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.low_ns, self.high_ns + 1))

    def mean(self) -> float:
        return (self.low_ns + self.high_ns) / 2.0


@dataclass(frozen=True)
class ShiftedLogNormal(DurationModel):
    """``offset + LogNormal(mu, sigma)``, optionally capped.

    The shift models the activity's floor cost (the paper's ``min`` column:
    even the cheapest page fault costs ~250 ns); the lognormal body gives the
    right-skewed shape every kernel-activity histogram in the paper shows.
    """

    offset_ns: int
    mu: float
    sigma: float
    cap_ns: int = 0  # 0 means uncapped

    def __post_init__(self) -> None:
        if self.offset_ns < 0:
            raise ValueError("offset must be non-negative")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.cap_ns and self.cap_ns <= self.offset_ns:
            raise ValueError("cap must exceed offset")

    def sample(self, rng: np.random.Generator) -> int:
        value = self.offset_ns + rng.lognormal(self.mu, self.sigma)
        if self.cap_ns:
            value = min(value, self.cap_ns)
        return max(int(value), self.offset_ns)

    def mean(self) -> float:
        # Mean of the uncapped distribution; the cap is set far enough out
        # that its effect on the mean is negligible for our parameters.
        return self.offset_ns + math.exp(self.mu + self.sigma**2 / 2.0)

    @staticmethod
    def from_mean(
        offset_ns: int, mean_ns: float, sigma: float, cap_ns: int = 0
    ) -> "ShiftedLogNormal":
        """Construct so that the distribution mean equals ``mean_ns``."""
        body = mean_ns - offset_ns
        if body <= 0:
            raise ValueError("mean must exceed offset")
        mu = math.log(body) - sigma**2 / 2.0
        return ShiftedLogNormal(offset_ns, mu, sigma, cap_ns)


@dataclass(frozen=True)
class Bimodal(DurationModel):
    """Mixture of two components, e.g. AMG's two page-fault peaks (Fig. 4a)."""

    first: DurationModel
    second: DurationModel
    second_weight: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.second_weight <= 1.0:
            raise ValueError("second_weight must be a probability")

    def sample(self, rng: np.random.Generator) -> int:
        if rng.random() < self.second_weight:
            return self.second.sample(rng)
        return self.first.sample(rng)

    def mean(self) -> float:
        w = self.second_weight
        return (1.0 - w) * self.first.mean() + w * self.second.mean()


@dataclass(frozen=True)
class Mixture(DurationModel):
    """General weighted mixture of duration models."""

    components: Tuple[DurationModel, ...]
    weights: Tuple[float, ...]
    _cum: Tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.components) != len(self.weights) or not self.components:
            raise ValueError("components and weights must align and be non-empty")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        total = sum(self.weights)
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        cum: List[float] = []
        acc = 0.0
        for w in self.weights:
            acc += w / total
            cum.append(acc)
        object.__setattr__(self, "_cum", tuple(cum))

    def sample(self, rng: np.random.Generator) -> int:
        u = rng.random()
        for component, edge in zip(self.components, self._cum):
            if u <= edge:
                return component.sample(rng)
        return self.components[-1].sample(rng)

    def mean(self) -> float:
        total = sum(self.weights)
        return sum(w / total * c.mean() for c, w in zip(self.components, self.weights))


def from_stats(
    min_ns: int,
    avg_ns: float,
    max_ns: int,
    tail_weight: float = 2e-4,
    sigma: float = 0.6,
    floor_weight: float = 0.015,
) -> DurationModel:
    """Build a model matching a paper-style ``(min, avg, max)`` triple.

    Three components:

    * a **bulk** shifted lognormal carrying almost all of the mass and the
      mean;
    * a rare **tail** (probability ``tail_weight``), uniform on
      ``[max/2, max]``, producing the extreme maxima the paper reports
      (e.g. AMG's 69 ms worst-case page fault against a 4.4 us average,
      Table I);
    * a small **floor** (probability ``floor_weight``), uniform on
      ``[min, 2*min]``, modelling the activity's fast path so finite runs
      actually exhibit near-``min`` samples.

    The mixture mean equals ``avg_ns`` in expectation.  ``tail_weight`` is
    clamped so the bulk mean stays above ``min_ns``.
    """
    if not 0 < min_ns <= avg_ns <= max_ns:
        raise ValueError(f"need 0 < min <= avg <= max, got {(min_ns, avg_ns, max_ns)}")
    if max_ns == min_ns:
        return Constant(min_ns)

    tail_mean = 0.75 * max_ns
    floor_mean = 1.5 * min_ns
    wf = floor_weight if floor_mean < avg_ns else 0.0
    # Keep the bulk mean strictly above min so the lognormal stays valid.
    wt = tail_weight
    if tail_mean > avg_ns:
        w_limit = 0.9 * (avg_ns - min_ns) / (tail_mean - min_ns)
        wt = min(wt, w_limit)
    wt = max(wt, 0.0)
    wb = 1.0 - wt - wf
    bulk_mean = (avg_ns - wt * tail_mean - wf * floor_mean) / wb
    bulk_mean = max(bulk_mean, min_ns * 1.05)
    bulk = ShiftedLogNormal.from_mean(
        offset_ns=min_ns, mean_ns=bulk_mean, sigma=sigma, cap_ns=max_ns
    )
    components: List[DurationModel] = [bulk]
    weights: List[float] = [wb]
    if wf > 0.0:
        components.append(Uniform(min_ns, min(2 * min_ns, max_ns)))
        weights.append(wf)
    if wt > 0.0:
        components.append(Uniform(max(min_ns, max_ns // 2), max_ns))
        weights.append(wt)
    if len(components) == 1:
        return bulk
    return Mixture(components=tuple(components), weights=tuple(weights))


class Empirical(DurationModel):
    """Resample observed durations (bootstrap).

    Used by noise *cloning*: replaying a measured noise profile preserves
    the empirical duration distribution exactly — tails, modes and all —
    where any parametric fit would smooth them.
    """

    def __init__(self, samples) -> None:
        arr = np.asarray(samples, dtype=np.int64)
        if arr.size == 0:
            raise ValueError("empirical model needs at least one sample")
        if arr.min() < 0:
            raise ValueError("durations must be non-negative")
        self.samples = arr

    def sample(self, rng: np.random.Generator) -> int:
        return int(self.samples[rng.integers(0, self.samples.size)])

    def mean(self) -> float:
        return float(self.samples.mean())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Empirical n={self.samples.size} mean={self.mean():.0f}ns>"
