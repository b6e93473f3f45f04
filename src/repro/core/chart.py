"""The Synthetic OS Noise Chart (Figures 1b/1d, 9b, 10).

FTQ perceives one opaque "spike" per interruption; the trace decomposes each
spike into its kernel components.  This module groups the temporally
adjacent noise rows of an analysis's
:class:`~repro.core.model.ActivityTable` into interruptions, held as
columns, and produces the chart series: one ``(time, noise_ns,
composition)`` point per interruption.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from repro.core.analysis import NoiseAnalysis
from repro.core.model import ActivityTable, Interruption


class InterruptionGroups:
    """A table's interruptions as columns, one entry per group in
    ``(start, cpu)`` order: ``cpus``, ``starts``, ``ends``, ``noise``
    (summed self time) and the group's rows ``index[lo:hi]`` (table row
    numbers in ``(cpu, start, depth)`` order).  ``len()`` counts them;
    the queries read the columns and build :class:`Interruption` objects
    only for the groups they return (``interruptions``: all, once).

    Activities whose start lies within ``merge_gap_ns`` of the group's
    current end belong to the same interruption — a timer interrupt, the
    ``run_timer_softirq`` it triggers, the two halves of ``schedule()`` and
    the daemon burst in between are back-to-back and form one interruption,
    exactly as FTQ perceives them.  A per-CPU running maximum over end
    times finds the group boundaries.
    """

    def __init__(self, table: ActivityTable, merge_gap_ns: int = 300,
                 cpu: Optional[int] = None, noise_only: bool = True) -> None:
        if merge_gap_ns < 0:
            raise ValueError("merge gap must be non-negative")
        self.table = table
        d = table.data
        index = np.flatnonzero(table.mask(cpu=cpu, noise_only=noise_only))
        self.index = index = index[np.lexsort(
            (d["depth"][index], d["start"][index], d["cpu"][index])
        )]
        cpus, starts, ends = (d[k][index] for k in ("cpu", "start", "end"))
        n = len(index)
        # Running max of end times, restarted at each CPU segment.
        cummax = np.empty(n, dtype=np.int64)
        seg = np.flatnonzero(np.append(True, cpus[1:] != cpus[:-1]))
        for s, e in zip(seg, np.append(seg[1:], n)):
            cummax[s:e] = np.maximum.accumulate(ends[s:e])
        new_group = np.ones(n, dtype=bool)
        new_group[1:] = (starts[1:] > cummax[:-1] + merge_gap_ns) | (
            cpus[1:] != cpus[:-1]
        )
        heads = np.flatnonzero(new_group)
        chrono = np.lexsort((cpus[heads], starts[heads]))
        self.cpus, self.starts = cpus[heads][chrono], starts[heads][chrono]
        self.lo, self.hi = heads[chrono], np.append(heads[1:], n)[chrono]
        self.ends = self.noise = np.zeros(0, dtype=np.int64)
        if n:
            self.ends = np.maximum.reduceat(ends, heads)[chrono]
            self.noise = np.add.reduceat(d["self_ns"][index], heads)[chrono]

    def __len__(self) -> int:
        return len(self.starts)

    def build(self, which) -> List[Interruption]:
        """The :class:`Interruption` objects of groups ``which`` (column
        indices), in that order; only their rows become objects."""
        lo = self.lo[which]
        k = self.hi[which] - lo
        picks = np.repeat(lo - (np.cumsum(k) - k), k) + np.arange(k.sum())
        rows = self.table.take(self.index[picks]).rows()
        bounds = np.append(0, np.cumsum(k)).tolist()
        return [
            Interruption(cpu=cpu, start=start, end=end,
                         activities=rows[bounds[i] : bounds[i + 1]])
            for i, (cpu, start, end) in enumerate(zip(
                self.cpus[which].tolist(), self.starts[which].tolist(),
                self.ends[which].tolist(),
            ))
        ]

    @cached_property
    def interruptions(self) -> List[Interruption]:
        return self.build(np.arange(len(self)))

    def series(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(times, noise_ns)`` arrays — the chart's x/y values."""
        return self.starts.copy(), self.noise.copy()

    def window(self, t0: int, t1: int,
               limit: Optional[int] = None) -> List[Interruption]:
        """Interruptions inside a time window (the paper's zoom views),
        at most the first ``limit`` of them."""
        lo, hi = self.starts.searchsorted([t0, t1]).tolist()
        return self.build(np.arange(lo, hi)[:limit])

    def at(self, time_ns: int, slack_ns: int = 0) -> Optional[Interruption]:
        """The interruption covering (or nearest within slack of) a time;
        of equally near ones, the first."""
        # How far outside each group the time lies (<= 0 inside).
        dist = np.maximum(self.starts - time_ns, time_ns - self.ends)
        near = np.flatnonzero(dist <= slack_ns)
        if not len(near):
            return None
        return self.build(near[[np.maximum(dist[near], 0).argmin()]])[0]

    def largest(self, n: int = 10) -> List[Interruption]:
        """The ``n`` noisiest interruptions; ties in chronological order."""
        return self.build(np.argsort(-self.noise, kind="stable")[:n])

    def total_noise_ns(self) -> int:
        return int(self.noise.sum())


def build_interruptions(table: ActivityTable, merge_gap_ns: int = 300,
                        cpu: Optional[int] = None,
                        noise_only: bool = True) -> List[Interruption]:
    """Every interruption of a table, in ``(start, cpu)`` order."""
    return InterruptionGroups(table, merge_gap_ns, cpu, noise_only).interruptions


class SyntheticNoiseChart(InterruptionGroups):
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
        super().__init__(analysis.table, merge_gap_ns, cpu, noise_only)
        self.analysis = analysis
        self.cpu = cpu
