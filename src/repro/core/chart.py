"""The Synthetic OS Noise Chart (Figures 1b/1d, 9b, 10).

FTQ perceives one opaque "spike" per interruption; the trace decomposes each
spike into its kernel components.  This module groups the temporally
adjacent noise rows of an analysis's
:class:`~repro.core.model.ActivityTable` into
:class:`~repro.core.model.Interruption` objects and produces the chart
series: one ``(time, noise_ns, composition)`` point per interruption.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.analysis import NoiseAnalysis
from repro.core.model import ActivityTable, Interruption


def build_interruptions(
    table: ActivityTable,
    merge_gap_ns: int = 300,
    cpu: Optional[int] = None,
    noise_only: bool = True,
) -> List[Interruption]:
    """Group a table's activities into interruptions.

    Activities whose start lies within ``merge_gap_ns`` of the group's
    current end belong to the same interruption — a timer interrupt, the
    ``run_timer_softirq`` it triggers, the two halves of ``schedule()`` and
    the daemon burst in between are back-to-back and form one interruption,
    exactly as FTQ perceives them.  Grouping is columnar: a per-CPU
    running maximum over end times finds the group boundaries.
    """
    if merge_gap_ns < 0:
        raise ValueError("merge gap must be non-negative")
    m = np.ones(len(table), dtype=bool)
    if noise_only:
        m &= table.data["is_noise"]
    if cpu is not None:
        m &= table.data["cpu"] == cpu
    sub = table.take(m)
    if not len(sub):
        return []
    # Per-CPU segments ordered by (start, depth).
    d = sub.data
    order = np.lexsort((d["depth"], d["start"], d["cpu"]))
    sub = sub.take(order)
    d = sub.data
    cpus = d["cpu"]
    starts = d["start"].astype(np.int64)
    ends = d["end"].astype(np.int64)
    # Running max of end times, restarted at each CPU segment.
    cummax = np.empty(len(ends), dtype=np.int64)
    seg_heads = np.flatnonzero(
        np.concatenate([[True], cpus[1:] != cpus[:-1]])
    )
    for s, e in zip(seg_heads, np.append(seg_heads[1:], len(ends))):
        cummax[s:e] = np.maximum.accumulate(ends[s:e])
    new_group = np.ones(len(d), dtype=bool)
    new_group[1:] = (starts[1:] > cummax[:-1] + merge_gap_ns) | (
        cpus[1:] != cpus[:-1]
    )
    heads = np.flatnonzero(new_group)
    group_end = np.maximum.reduceat(ends, heads)
    rows = sub.rows()
    bounds = np.append(heads, len(rows))
    out = [
        Interruption(
            cpu=int(cpus[heads[g]]),
            start=int(starts[heads[g]]),
            end=int(group_end[g]),
            activities=rows[bounds[g] : bounds[g + 1]],
        )
        for g in range(len(heads))
    ]
    out.sort(key=lambda g: (g.start, g.cpu))
    return out


class SyntheticNoiseChart:
    """The per-interruption noise chart for one CPU (or the whole node)."""

    def __init__(
        self,
        analysis: NoiseAnalysis,
        cpu: Optional[int] = None,
        merge_gap_ns: int = 300,
        noise_only: bool = True,
    ) -> None:
        """``noise_only=False`` also shows excluded activities (syscalls,
        the tracer daemon's own bursts) — useful when explaining a spike an
        indirect tool like FTQ perceives but the noise accounting excludes."""
        self.analysis = analysis
        self.cpu = cpu
        self.interruptions = build_interruptions(
            analysis.table,
            merge_gap_ns=merge_gap_ns,
            cpu=cpu,
            noise_only=noise_only,
        )

    # ------------------------------------------------------------------
    def series(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(times, noise_ns)`` arrays — the chart's x/y values."""
        times = np.array([g.start for g in self.interruptions], dtype=np.int64)
        noise = np.array([g.noise_ns for g in self.interruptions], dtype=np.int64)
        return times, noise

    def window(self, t0: int, t1: int) -> List[Interruption]:
        """Interruptions inside a time window (the paper's zoom views)."""
        return [g for g in self.interruptions if t0 <= g.start < t1]

    def at(self, time_ns: int, slack_ns: int = 0) -> Optional[Interruption]:
        """The interruption covering (or nearest within slack of) a time."""
        best = None
        best_gap = None
        for g in self.interruptions:
            if g.start - slack_ns <= time_ns <= g.end + slack_ns:
                gap = 0 if g.start <= time_ns <= g.end else min(
                    abs(g.start - time_ns), abs(g.end - time_ns)
                )
                if best is None or gap < best_gap:
                    best, best_gap = g, gap
        return best

    def largest(self, n: int = 10) -> List[Interruption]:
        return sorted(
            self.interruptions, key=lambda g: g.noise_ns, reverse=True
        )[:n]

    def total_noise_ns(self) -> int:
        return sum(g.noise_ns for g in self.interruptions)
