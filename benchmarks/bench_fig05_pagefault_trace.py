"""Figure 5: page fault placement in time (AMG vs LAMMPS execution traces).

The paper filters the Paraver trace down to page faults (red) and reads the
placement off the picture: AMG's faults spread over the whole execution with
accumulation points; LAMMPS's faults sit mainly at the beginning
(initialization) and the end.  This bench computes the same placement as a
per-decile fault count and exports the filtered Paraver trace the figure
corresponds to.
"""

import os
import tempfile

import numpy as np
import pytest

from conftest import once
from repro.core.filters import apply, by_event
from repro.io import ParaverWriter, parse_prv


def decile_profile(analysis):
    faults = apply(analysis.table, by_event("page_fault"))
    span = analysis.span_ns
    counts = np.zeros(10, dtype=np.int64)
    for act in faults:
        counts[min(9, 10 * (act.start - analysis.start_ts) // span)] += 1
    return counts


def test_fig05_fault_placement(benchmark, runs, echo):
    def compute():
        return {
            app: decile_profile(runs.sequoia(app)[3])
            for app in ("AMG", "LAMMPS")
        }

    profiles = once(benchmark, compute)

    echo("\n=== Figure 5: page fault placement (faults per run decile) ===")
    for app, counts in profiles.items():
        total = counts.sum()
        bars = " ".join(f"{100 * c / total:5.1f}%" for c in counts)
        echo(f"{app:8s} {bars}")

    amg, lam = profiles["AMG"], profiles["LAMMPS"]
    # AMG: spread through the whole run — every decile populated.
    assert (amg > 0.03 * amg.sum()).all()
    # LAMMPS: concentrated at the beginning; middle nearly empty.
    assert lam[0] > 0.5 * lam.sum()
    assert lam[3:9].sum() < 0.2 * lam.sum()

    # Export the filtered trace (all events but page faults masked), as the
    # figure's caption describes.
    node, trace, meta, analysis = runs.sequoia("AMG")
    table = analysis.table
    faults = table.take(by_event("page_fault").mask(table))
    with tempfile.TemporaryDirectory() as d:
        writer = ParaverWriter(meta, analysis.ncpus, analysis.end_ts)
        prv, _, _ = writer.export(os.path.join(d, "amg_faults"), faults)
        _, records = parse_prv(prv)
        echo(f"\nfiltered Paraver trace: {len(records)} records "
             f"({len(faults)} fault states)")
        assert len(records) == 3 * len(faults)
