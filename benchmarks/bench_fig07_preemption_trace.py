"""Figure 7: process preemption experienced by LAMMPS.

The paper's whole-run trace, filtered to preemptions (green), shows LAMMPS
suffering many frequent preemptions throughout its execution — by
``rpciod``, because LAMMPS moves a lot of data through NFS.  This bench
computes the preemption placement and exports the filtered Paraver trace.
"""

import os
import tempfile

import numpy as np
import pytest

from conftest import once
from repro.core.filters import apply, by_event, noise_only
from repro.io import ParaverWriter, parse_prv
from repro.util.units import fmt_ns


def test_fig07_lammps_preemptions(benchmark, runs, echo):
    node, trace, meta, analysis = runs.sequoia("LAMMPS")

    table = analysis.table
    keep = by_event("preemption") & noise_only()
    windows = once(benchmark, lambda: apply(table, keep))

    span = analysis.span_ns
    deciles = np.zeros(10, dtype=np.int64)
    for w in windows:
        deciles[min(9, 10 * (w.start - analysis.start_ts) // span)] += 1

    total_time = sum(w.self_ns for w in windows)
    echo("\n=== Figure 7: LAMMPS process preemptions ===")
    echo(f"preemptions: {len(windows)} over {fmt_ns(span)} "
         f"({len(windows) / (span / 1e9):.0f}/s node-wide)")
    echo(f"total preemption noise: {fmt_ns(total_time)}")
    echo("placement per decile: " + " ".join(str(c) for c in deciles))

    by_daemon = {}
    for w in windows:
        by_daemon[w.name] = by_daemon.get(w.name, 0) + 1
    echo(f"preempting daemons: {by_daemon} (paper: 'interrupted "
         f"particularly by rpciod, a I/O kernel daemon')")

    # Many frequent preemptions, spread across the whole run.
    assert len(windows) > 100
    assert (deciles > 0).all()
    # rpciod dominates.
    rpciod = sum(n for name, n in by_daemon.items() if "rpciod" in name)
    assert rpciod > 0.8 * len(windows)

    # The filtered Paraver export (everything but preemptions masked).
    with tempfile.TemporaryDirectory() as d:
        writer = ParaverWriter(meta, analysis.ncpus, analysis.end_ts)
        prv, _, _ = writer.export(
            os.path.join(d, "lammps_preempt"), table.take(keep.mask(table))
        )
        _, records = parse_prv(prv)
        assert len(records) == 3 * len(windows)
