#!/usr/bin/env python
"""Export an execution trace to the Paraver format (and CSV / NPZ).

Produces the bundles the paper's execution-trace figures come from:

* the full trace (every kernel activity, colour-coded by noise category);
* a filtered trace containing only page faults (Figure 5's view);
* a filtered trace containing only preemptions (Figure 7's view);
* the flat CSV and NPZ numeric exports (the paper's "Matlab module").

Run:  python examples/paraver_export.py [output-dir] [app]
"""

import os
import sys

from repro.core import NoiseAnalysis, TraceMeta
from repro.core.filters import by_event, noise_only
from repro.io import ParaverWriter, activities_to_csv, export_npz
from repro.util.units import MSEC
from repro.workloads import SequoiaWorkload


def main() -> None:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "paraver_out"
    app = sys.argv[2] if len(sys.argv) > 2 else "LAMMPS"
    os.makedirs(out_dir, exist_ok=True)

    duration = 1500 * MSEC
    workload = SequoiaWorkload(app, nominal_ns=duration)
    node, trace = workload.run_traced(duration, seed=11)
    meta = TraceMeta.from_node(node)
    analysis = NoiseAnalysis(trace, meta=meta)
    writer = ParaverWriter(meta, node.config.ncpus, analysis.end_ts)

    # Full trace.
    table = analysis.table
    files = writer.export(os.path.join(out_dir, f"{app.lower()}_full"), table)
    print("full trace:      " + ", ".join(os.path.basename(f) for f in files))

    # Figure 5 view: everything but page faults filtered out.
    faults = table.take(by_event("page_fault").mask(table))
    writer.export(os.path.join(out_dir, f"{app.lower()}_pagefaults"), faults)
    print(f"page-fault view: {len(faults)} activities")

    # Figure 7 view: only process preemptions.
    preemptions = table.take(
        (by_event("preemption") & noise_only()).mask(table)
    )
    writer.export(os.path.join(out_dir, f"{app.lower()}_preemptions"), preemptions)
    print(f"preemption view: {len(preemptions)} activities")

    # Numeric exports.
    csv_path = os.path.join(out_dir, f"{app.lower()}_activities.csv")
    n = activities_to_csv(csv_path, table)
    export_npz(os.path.join(out_dir, f"{app.lower()}_noise.npz"), analysis)
    print(f"numeric exports: {n} rows -> {os.path.basename(csv_path)}, "
          f"{app.lower()}_noise.npz")

    # The raw binary trace itself, reloadable with Trace.from_file().
    trace_path = os.path.join(out_dir, f"{app.lower()}.lttnz")
    trace.to_file(trace_path)
    print(f"binary trace:    {os.path.basename(trace_path)} "
          f"({os.path.getsize(trace_path)} bytes)")


if __name__ == "__main__":
    main()
