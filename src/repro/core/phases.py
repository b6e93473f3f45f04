"""Phase-segmented analysis.

Workloads emit ``marker`` point events at phase changes (the Sequoia models
mark every fault-rate transition); this module segments a trace at those
markers and computes per-phase statistics — the quantitative form of the
paper's Figure 5 reading ("LAMMPS page faults are mainly located at the
beginning, during initialization").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.analysis import NoiseAnalysis, _resolve_event
from repro.util.stats import describe_durations


@dataclass(frozen=True)
class Phase:
    """One trace segment between consecutive markers."""

    index: int
    start: int
    end: int
    #: The opening marker's argument (the Sequoia models put the phase's
    #: fault rate here); -1 for the pre-first-marker segment.
    tag: int

    @property
    def span_ns(self) -> int:
        return self.end - self.start


def split_phases(analysis: NoiseAnalysis) -> List[Phase]:
    """Segment the trace at marker events (deduplicated per timestamp)."""
    marks = analysis.markers()
    boundaries: List[tuple] = []
    seen = set()
    for time, _pid, arg in marks:
        if int(time) not in seen:
            seen.add(int(time))
            boundaries.append((int(time), int(arg)))
    boundaries.sort()
    phases: List[Phase] = []
    cursor = analysis.start_ts
    tag = -1
    index = 0
    for time, arg in boundaries:
        if time > cursor:
            phases.append(Phase(index, cursor, time, tag))
            index += 1
        cursor = time
        tag = arg
    if analysis.end_ts > cursor:
        phases.append(Phase(index, cursor, analysis.end_ts, tag))
    return phases


def phase_stats(
    analysis: NoiseAnalysis,
    event: Union[int, str],
    phases: Optional[Sequence[Phase]] = None,
) -> "List[tuple]":
    """Per-phase ``(phase, DurationStats)`` rows for one event type.

    Frequencies are per CPU-second *of the phase*, so a fault burst during
    a short initialization reads as the high rate it locally is.
    """
    if phases is None:
        phases = split_phases(analysis)
    table = analysis.table
    m = table.mask(event=_resolve_event(event), include_truncated=False)
    # The table is time-sorted, so each phase is one searchsorted slice.
    starts = table.data["start"][m]
    self_ns = table.data["self_ns"][m]
    out = []
    for phase in phases:
        lo = np.searchsorted(starts, phase.start, side="left")
        hi = np.searchsorted(starts, phase.end, side="left")
        stats = describe_durations(
            self_ns[lo:hi], span_ns=max(1, phase.span_ns), cpus=analysis.ncpus
        )
        out.append((phase, stats))
    return out
