"""Figure 2: the FTQ execution trace and its zoomed interruption.

The paper's Figure 2b decomposes one timer-interrupt interruption into five
kernel events with these durations: timer interrupt 2.178 us,
run_timer_softirq 1.842 us, first half of schedule() 0.382 us, process
preemption (eventd) 2.215 us, second half of schedule() 0.179 us.  This
bench finds the equivalent interruption in our trace, prints the same
decomposition, and exports the Paraver bundle the figure was rendered from.
"""

import os
import tempfile

from conftest import once
from repro.core import SyntheticNoiseChart
from repro.core.report import format_interruptions
from repro.io import ParaverWriter, parse_prv
from repro.util.units import fmt_ns

PAPER_SEQUENCE = (
    ("timer_interrupt", 2178),
    ("run_timer_softirq", 1842),
    ("schedule", 382),
    ("preempt:eventd", 2215),
    ("schedule", 179),
)


def _find_fig2b_interruption(chart):
    """An interruption containing tick + softirq + sched/preempt/sched."""
    for group in chart.interruptions:
        names = [a.name for a in sorted(group.activities, key=lambda a: a.start)]
        if (
            "timer_interrupt" in names
            and "run_timer_softirq" in names
            and any(n.startswith("preempt:") for n in names)
            and names.count("schedule") >= 2
        ):
            return group
    return None


def test_fig02_trace_decomposition(benchmark, runs, echo):
    node, trace, meta, analysis = runs.ftq()

    chart = once(benchmark, lambda: SyntheticNoiseChart(analysis, cpu=0))
    group = _find_fig2b_interruption(chart)
    assert group is not None, "no tick+preemption interruption found"

    echo("\n=== Figure 2b: one interruption, decomposed ===")
    echo(f"{'paper':>32s}   {'measured':>32s}")
    for name, paper_ns in PAPER_SEQUENCE:
        match = [a for a in group.activities if a.name == name]
        got = fmt_ns(match[0].self_ns) if match else "(varies)"
        echo(f"{name:>20s} {fmt_ns(paper_ns):>11s}   {got:>12s}")
    echo("\nfull interruption:")
    echo(format_interruptions([group]))

    # Fig. 2a: the periodic structure — ticks every 10 ms on the FTQ cpu.
    ticks = [
        g.start
        for g in chart.interruptions
        if "timer_interrupt" in g.signature()
    ]
    gaps = [b - a for a, b in zip(ticks, ticks[1:])]
    mean_gap = sum(gaps) / len(gaps)
    echo(f"\ntick period on cpu0: {fmt_ns(int(mean_gap))} (HZ=100 -> 10 ms)")
    assert abs(mean_gap - 10_000_000) < 500_000

    # Export the Paraver bundle (what Fig. 2 is rendered from).
    with tempfile.TemporaryDirectory() as d:
        writer = ParaverWriter(meta, analysis.ncpus, analysis.end_ts)
        prv, pcf, row = writer.export(os.path.join(d, "ftq"), analysis.table)
        _, records = parse_prv(prv)
        echo(f"Paraver export: {len(records)} records in {os.path.basename(prv)}")
        assert records
