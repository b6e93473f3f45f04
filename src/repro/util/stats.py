"""Descriptive statistics for event durations.

The paper's Tables I-VI all have the same shape: for one kernel activity and
one application they report ``freq (ev/sec)``, ``avg``, ``max`` and ``min``
duration in nanoseconds.  :class:`DurationStats` is that row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.util.units import SEC


@dataclass(frozen=True)
class DurationStats:
    """One row of a paper-style frequency/duration table.

    Attributes
    ----------
    count:
        Number of observed events.
    freq:
        Events per second (per CPU, when computed by the analyzer).
    avg, max, min, std:
        Duration statistics in nanoseconds.
    total:
        Sum of all durations in nanoseconds (the activity's noise budget).
    """

    count: int
    freq: float
    avg: float
    max: int
    min: int
    std: float
    total: int

    def as_row(self) -> "tuple[float, float, int, int]":
        """Return ``(freq, avg, max, min)`` exactly as the paper tabulates."""
        return (self.freq, self.avg, self.max, self.min)

    @staticmethod
    def empty() -> "DurationStats":
        """Stats for an activity that never occurred."""
        return DurationStats(0, 0.0, 0.0, 0, 0, 0.0, 0)


def describe_durations(
    durations_ns: "Sequence[int] | np.ndarray",
    span_ns: int,
    cpus: int = 1,
) -> DurationStats:
    """Compute a :class:`DurationStats` row.

    Parameters
    ----------
    durations_ns:
        Durations of every observed event, in nanoseconds.
    span_ns:
        Length of the observation window in nanoseconds.
    cpus:
        Number of CPUs the events were collected from.  The paper reports
        per-CPU frequencies (e.g. the timer interrupt is "100 ev/sec" on an
        8-core node running a 100 Hz tick on every core), so frequency is
        normalized by ``cpus``.
    """
    if span_ns <= 0:
        raise ValueError("span_ns must be positive")
    if cpus <= 0:
        raise ValueError("cpus must be positive")
    arr = np.asarray(durations_ns, dtype=np.int64)
    if arr.size == 0:
        return DurationStats.empty()
    freq = arr.size / (span_ns / SEC) / cpus
    return DurationStats(
        count=int(arr.size),
        freq=float(freq),
        avg=float(arr.mean()),
        max=int(arr.max()),
        min=int(arr.min()),
        std=float(arr.std()),
        total=int(arr.sum()),
    )
