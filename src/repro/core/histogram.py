"""Duration distributions (Figures 4, 6 and 8).

The paper plots per-activity execution-time histograms, cut at the 99th
percentile "to improve the visualization" (footnote 3), and reads shapes off
them: AMG's two page-fault peaks, IRS's compact vs UMT's wide rebalance
distribution, ``run_timer_softirq``'s long tail.  This module computes the
histograms and the shape statistics those readings rest on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Histogram:
    """A computed duration histogram."""

    edges: np.ndarray    # bin edges, ns (len = nbins + 1)
    counts: np.ndarray   # per-bin counts
    cut_pct: float       # percentile the tail was cut at
    n_total: int         # samples before the cut
    n_kept: int          # samples after the cut

    @property
    def centers(self) -> np.ndarray:
        return (self.edges[:-1] + self.edges[1:]) / 2.0

    def mode_ns(self) -> float:
        """Center of the most populated bin (the distribution's main peak)."""
        if self.counts.sum() == 0:
            return 0.0
        return float(self.centers[int(np.argmax(self.counts))])

    def peaks(
        self, min_rel_height: float = 0.25, min_separation_bins: int = 4
    ) -> np.ndarray:
        """Centers of distinct local maxima at least ``min_rel_height`` of
        the max, after light smoothing (sampling noise in a histogram throws
        spurious one-bin maxima otherwise).

        Used to verify bimodality (AMG's ~2.5 us and ~4.5 us fault peaks).
        """
        c = self.counts.astype(np.float64)
        if c.max() == 0:
            return self.centers[:0]
        if len(c) < 3:
            # Too short to smooth: the single peak is the argmax bin (not
            # necessarily bin 0).
            return np.array([float(self.centers[int(np.argmax(c))])])
        # [1,2,1]/4 binomial smoothing, twice.
        kernel = np.array([0.25, 0.5, 0.25])
        for _ in range(2):
            c = np.convolve(c, kernel, mode="same")
        threshold = c.max() * min_rel_height
        peak_idx = [
            i
            for i in range(len(c))
            if c[i] >= threshold
            and (i == 0 or c[i] >= c[i - 1])
            and (i == len(c) - 1 or c[i] > c[i + 1])
        ]
        # Keep only the strongest peak within each separation window.
        peak_idx.sort(key=lambda i: -c[i])
        kept: list = []
        for i in peak_idx:
            if all(abs(i - j) >= min_separation_bins for j in kept):
                kept.append(i)
        kept.sort()
        return np.array([float(self.centers[i]) for i in kept])


def duration_histogram(
    durations_ns: Sequence[int],
    bins: int = 60,
    cut_pct: float = 99.0,
    range_ns: Optional[Tuple[int, int]] = None,
) -> Histogram:
    """Histogram of activity durations with the paper's percentile cut."""
    arr = np.asarray(durations_ns, dtype=np.int64)
    n_total = int(arr.size)
    if n_total == 0:
        return Histogram(
            edges=np.array([0.0, 1.0]),
            counts=np.zeros(1, dtype=np.int64),
            cut_pct=cut_pct,
            n_total=0,
            n_kept=0,
        )
    if cut_pct < 100.0:
        cut = np.percentile(arr, cut_pct)
        arr = arr[arr <= cut]
    counts, edges = np.histogram(arr, bins=bins, range=range_ns)
    return Histogram(
        edges=edges,
        counts=counts,
        cut_pct=cut_pct,
        n_total=n_total,
        n_kept=int(arr.size),
    )


def tail_index(durations_ns: Sequence[int]) -> float:
    """A simple long-tail indicator: p99.9 / median.

    ``run_timer_softirq`` (Fig. 8) scores high; compact distributions like
    IRS's rebalance (Fig. 6b) score low.
    """
    arr = np.asarray(durations_ns, dtype=np.float64)
    if arr.size == 0:
        return 0.0
    median = np.median(arr)
    if median <= 0:
        return 0.0
    return float(np.percentile(arr, 99.9) / median)


def spread_ratio(durations_ns: Sequence[int]) -> float:
    """Relative spread (IQR / median): wide (UMT) vs compact (IRS) shapes."""
    arr = np.asarray(durations_ns, dtype=np.float64)
    if arr.size == 0:
        return 0.0
    median = np.median(arr)
    if median <= 0:
        return 0.0
    q75, q25 = np.percentile(arr, [75, 25])
    return float((q75 - q25) / median)
