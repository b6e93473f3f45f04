#!/usr/bin/env python
"""Regenerate the paper's figures as SVG files.

Runs the relevant experiments and writes one SVG per figure into an output
directory (default ``figures/``):

* fig1a/fig1b — FTQ chart vs synthetic OS noise chart (same execution)
* fig2        — zoomed FTQ execution trace strip
* fig3        — noise breakdown stacked bars, all five Sequoia apps
* fig4a/fig4b — AMG / LAMMPS page-fault histograms
* fig5a/fig5b — AMG / LAMMPS fault-placement trace strips
* fig6a/fig6b — UMT / IRS rebalance histograms
* fig7        — LAMMPS preemption trace strip
* fig8a/fig8b — AMG / UMT run_timer_softirq histograms

Run:  python examples/generate_figures.py [output-dir] [seconds-per-app]
"""

import os
import sys

from repro.core import (
    NoiseAnalysis,
    SyntheticNoiseChart,
    TraceMeta,
    duration_histogram,
)
from repro.core.filters import by_event, combined_mask, noise_only
from repro.io.svgplot import (
    histogram_chart,
    spike_chart,
    stacked_bars,
    trace_strip,
    write_svg,
)
from repro.util.units import MSEC, SEC
from repro.workloads import FTQWorkload, SequoiaWorkload, ftq_output

APPS = ("AMG", "IRS", "LAMMPS", "SPHOT", "UMT")


def select(table, *filters):
    """The sub-table of the rows every filter keeps."""
    return table.take(combined_mask(table, *filters))


def main() -> None:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "figures"
    seconds = float(sys.argv[2]) if len(sys.argv) > 2 else 1.5
    duration = int(seconds * SEC)
    os.makedirs(out_dir, exist_ok=True)
    made = []

    def save(name, svg):
        path = os.path.join(out_dir, name + ".svg")
        write_svg(path, svg)
        made.append(path)

    # --- Figures 1 and 2: FTQ ---------------------------------------
    print("FTQ run ...")
    ftq = FTQWorkload()
    node, trace = ftq.run_traced(duration, seed=42, ncpus=2)
    analysis = NoiseAnalysis(trace, meta=TraceMeta.from_node(node))
    comparison = ftq_output(analysis, cpu=0)
    save("fig1a_ftq", spike_chart(
        list(comparison.times), list(comparison.ftq_noise_ns),
        "Fig 1a: OS noise as measured by FTQ",
    ))
    chart = SyntheticNoiseChart(analysis, cpu=0)
    times, noise = chart.series()
    save("fig1b_synthetic", spike_chart(
        list(times), list(noise),
        "Fig 1b: synthetic OS noise chart", color="#2ca02c",
    ))
    # Fig 2: zoom on one tick interruption (75 ms window like the paper's 2a).
    t0 = analysis.start_ts + duration // 2
    save("fig2_trace", trace_strip(
        select(analysis.table, noise_only()),
        t0, t0 + 75 * MSEC, 2, "Fig 2: FTQ execution trace (75 ms)",
    ))

    # --- Sequoia runs -------------------------------------------------
    analyses = {}
    for app in APPS:
        print(f"{app} run ...")
        workload = SequoiaWorkload(app, nominal_ns=duration)
        node, trace = workload.run_traced(duration, seed=42)
        analyses[app] = NoiseAnalysis(trace, meta=TraceMeta.from_node(node))

    save("fig3_breakdown", stacked_bars(
        {
            app: {c.value: f for c, f in an.breakdown_fractions().items()}
            for app, an in analyses.items()
        },
        "Fig 3: OS noise breakdown",
        categories=["periodic", "page fault", "scheduling", "preemption", "io"],
    ))

    for app, fig in (("AMG", "fig4a"), ("LAMMPS", "fig4b")):
        hist = duration_histogram(analyses[app].durations("page_fault"), bins=60)
        save(f"{fig}_pf_{app.lower()}", histogram_chart(
            list(hist.edges), list(hist.counts),
            f"Fig {fig[3:]}: {app} page fault durations",
        ))

    for app, fig in (("AMG", "fig5a"), ("LAMMPS", "fig5b")):
        an = analyses[app]
        faults = select(an.table, by_event("page_fault"))
        save(f"{fig}_trace_{app.lower()}", trace_strip(
            faults, an.start_ts, an.end_ts, an.ncpus,
            f"Fig {fig[3:]}: {app} page fault placement",
        ))

    for app, fig in (("UMT", "fig6a"), ("IRS", "fig6b")):
        hist = duration_histogram(
            analyses[app].durations("run_rebalance_domains"), bins=50
        )
        save(f"{fig}_rebalance_{app.lower()}", histogram_chart(
            list(hist.edges), list(hist.counts),
            f"Fig {fig[3:]}: {app} run_rebalance_domains durations",
            color="#ff7f0e",
        ))

    an = analyses["LAMMPS"]
    preemptions = select(an.table, by_event("preemption"), noise_only())
    save("fig7_preemptions_lammps", trace_strip(
        preemptions, an.start_ts, an.end_ts, an.ncpus,
        "Fig 7: LAMMPS process preemptions",
    ))

    for app, fig in (("AMG", "fig8a"), ("UMT", "fig8b")):
        hist = duration_histogram(
            analyses[app].durations("run_timer_softirq"), bins=50
        )
        save(f"{fig}_softirq_{app.lower()}", histogram_chart(
            list(hist.edges), list(hist.counts),
            f"Fig {fig[3:]}: {app} run_timer_softirq durations",
            color="#000000",
        ))

    print(f"\nwrote {len(made)} figures:")
    for path in made:
        print("  " + path)


if __name__ == "__main__":
    main()
