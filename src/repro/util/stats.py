"""Descriptive statistics for event durations.

The paper's Tables I-VI all have the same shape: for one kernel activity and
one application they report ``freq (ev/sec)``, ``avg``, ``max`` and ``min``
duration in nanoseconds.  :class:`DurationStats` is that row.

Every row comes from exact integer moments — count, sum, minimum, maximum
and sum of squares — through :func:`stats_from_moments`, whether its
values are at hand (:func:`describe_durations`) or were folded away group
by group (:class:`~repro.core.analysis.EventMoments`, batch and
streaming alike), so the same values give equal rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import List, Sequence

import numpy as np

from repro.util.units import SEC

#: Values in ``[0, 2**32)`` square exactly in uint64.
_SQUARE_EXACT = 1 << 32
_HALF_BITS = np.uint64(32)
_LOW_HALF = np.uint64(0xFFFFFFFF)


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


def square_sums(
    values: np.ndarray, heads: np.ndarray, mn: int, mx: int
) -> List[int]:
    """Exact sum of squares of each run of int64 ``values`` starting at
    ``heads`` (the last run ends at the end), as Python ints; ``mn`` and
    ``mx`` bound every value.

    A value in ``[0, 2**32)`` squares exactly in uint64; the low and the
    high 32-bit halves of the squares are summed apart (neither sum can
    overflow below 2**32 values) and Python ints join them.  Values
    outside that range are squared in Python ints instead.
    """
    if mn >= 0 and mx < _SQUARE_EXACT:
        squares = values.astype(np.uint64)
        squares *= squares
        low = np.add.reduceat(squares & _LOW_HALF, heads).tolist()
        high = np.add.reduceat(squares >> _HALF_BITS, heads).tolist()
        return [(hi << 32) + lo for hi, lo in zip(high, low)]
    flat = values.tolist()
    bounds = heads.tolist() + [len(flat)]
    parts = (flat[a:b] for a, b in zip(bounds, bounds[1:]))
    return [sum(map(mul, part, part)) for part in parts]


def stats_from_moments(
    count: int, total: int, mn: int, mx: int, sq: int, span_ns: int, cpus: int
) -> DurationStats:
    """The :class:`DurationStats` row of ``count`` values with sum
    ``total``, minimum ``mn``, maximum ``mx`` and sum of squares ``sq``.

    ``avg`` is the correctly rounded quotient of the exact sum, equal to
    ``np.mean`` while the sum stays below 2**53.  ``std`` is the
    population deviation by the textbook identity on exact integers,
    ``sqrt(count * sq - total**2) / count``: three float roundings and
    none of ``np.std``'s float pipeline.  ``span_ns`` and ``cpus``
    normalize ``freq`` as in :func:`describe_durations`.
    """
    if span_ns <= 0:
        raise ValueError("span_ns must be positive")
    if cpus <= 0:
        raise ValueError("cpus must be positive")
    if count == 0:
        return DurationStats.empty()
    # Negative only when a wrapped int64 total broke the identity.
    disc = max(0, count * sq - total * total)
    return DurationStats(
        count=count,
        freq=count / (span_ns / SEC) / cpus,
        avg=total / count,
        max=mx,
        min=mn,
        std=math.sqrt(disc) / count,
        total=total,
    )


def describe_durations(
    durations_ns: "Sequence[int] | np.ndarray",
    span_ns: int,
    cpus: int = 1,
) -> DurationStats:
    """Compute a :class:`DurationStats` row from exact moments.

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
    arr = np.asarray(durations_ns, dtype=np.int64)
    if arr.size == 0:
        return stats_from_moments(0, 0, 0, 0, 0, span_ns, cpus)
    mn, mx = int(arr.min()), int(arr.max())
    (sq,) = square_sums(arr, np.zeros(1, dtype=np.intp), mn, mx)
    return stats_from_moments(
        int(arr.size), int(arr.sum()), mn, mx, sq, span_ns, cpus
    )
