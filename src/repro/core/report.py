"""Text rendering of paper-style tables and breakdowns.

The benchmark harness prints the same rows the paper's tables report;
these helpers keep the formatting in one place.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.analysis import bin_overlaps
from repro.core.model import (
    ActivityTable, BREAKDOWN_CATEGORIES, CATEGORY_ORDER, NoiseCategory,
    take_rows,
)
from repro.util.stats import DurationStats
from repro.util.units import fmt_ns


def format_table(
    title: str,
    rows: Mapping[str, DurationStats],
    paper_rows: Optional[Mapping[str, Tuple[float, float, int, int]]] = None,
) -> str:
    """Render a Table I-VI style table; optionally with paper reference rows.

    Columns: ``freq(ev/sec)  avg(nsec)  max(nsec)  min(nsec)``.
    """
    lines = [title, "-" * len(title)]
    width = max([10] + [len(name) for name in rows])
    header = (
        f"{'':{width}s} {'freq(ev/s)':>12s} {'avg(ns)':>12s} "
        f"{'max(ns)':>14s} {'min(ns)':>10s}"
    )
    lines.append(header)
    for name, stats in rows.items():
        lines.append(
            f"{name:{width}s} {stats.freq:12.1f} {stats.avg:12.0f} "
            f"{stats.max:14d} {stats.min:10d}"
        )
        if paper_rows is not None and name in paper_rows:
            freq, avg, mx, mn = paper_rows[name]
            lines.append(
                f"{'  (paper)':{width}s} {freq:12.1f} {avg:12.0f} "
                f"{mx:14d} {mn:10d}"
            )
    return "\n".join(lines)


def format_breakdown(
    title: str,
    fractions_by_app: Mapping[str, Mapping[NoiseCategory, float]],
) -> str:
    """Render a Figure 3 style stacked-breakdown table (rows = apps)."""
    lines = [title, "-" * len(title)]
    cats = list(BREAKDOWN_CATEGORIES)
    header = f"{'':10s} " + " ".join(f"{c.value:>12s}" for c in cats)
    lines.append(header)
    for app, fractions in fractions_by_app.items():
        cells = " ".join(f"{100 * fractions.get(c, 0.0):11.1f}%" for c in cats)
        lines.append(f"{app:10s} {cells}")
    return "\n".join(lines)


def format_interruptions(
    interruptions: Iterable, limit: int = 20, t_origin: int = 0
) -> str:
    """Render a zoomed synthetic-chart window (Fig. 1d / Fig. 10 style)."""
    lines = []
    for i, g in enumerate(interruptions):
        if i >= limit:
            lines.append("...")
            break
        parts = " + ".join(
            f"{a.name}[{fmt_ns(a.self_ns)}]"
            for a in sorted(g.activities, key=lambda a: a.start)
        )
        lines.append(
            f"t={fmt_ns(g.start - t_origin):>12s}  "
            f"noise={fmt_ns(g.noise_ns):>10s}  {parts}"
        )
    return "\n".join(lines)


def render_chart(
    chart, top: int, window: Optional[Tuple[int, int]] = None
) -> str:
    """The synthetic noise chart as text: the interruption count, then
    the ``top`` largest interruptions, or at most ``top`` of those that
    start inside the absolute ``window``.  ``lttng-noise chart`` prints
    it and the service's ``chart`` render returns it.  Only the groups
    it prints, and one more to know whether to print ``...``, become
    :class:`~repro.core.model.Interruption` objects."""
    scope = "" if chart.cpu is None else f" on cpu{chart.cpu}"
    lines = [f"{len(chart)} interruptions{scope}"]
    if window is None:
        lines.append("largest interruptions:")
        groups = chart.largest(top)
    else:
        groups = chart.window(*window, limit=max(top, 0) + 1)
    lines.append(format_interruptions(
        groups, limit=top, t_origin=chart.analysis.start_ts
    ))
    return "\n".join(lines)


#: One display character per noise category in the ASCII trace view,
#: matching the paper's colour legend (black ticks, red faults, green
#: preemptions, blue I/O, orange scheduling).
_CATEGORY_CHAR = {
    "periodic": "t",
    "page fault": "F",
    "scheduling": "s",
    "preemption": "P",
    "io": "n",
    "service": ".",
    "tracer": "~",
    "other": "?",
}

#: Widest ASCII trace: its grid holds ``ncpus * width * 8`` int64 cells.
MAX_TIMELINE_WIDTH = 10_000


def render_ascii_trace(
    table: ActivityTable,
    t0: int,
    t1: int,
    ncpus: int,
    width: int = 100,
) -> str:
    """A terminal rendition of the paper's execution-trace figures.

    One row per CPU; each column is a slice of ``(t1-t0)/width``; the cell
    shows the dominant noise category active there (space = pure user
    computation).  The same view Paraver gives, at character resolution —
    good enough to *see* Figure 5's fault placement or Figure 7's
    preemption density from a shell.

    Exact integer binning: cell ``c`` covers ``[t0 + span*c//width,
    t0 + span*(c+1)//width)``.  Overlaps sum into one ``(cpu, cell,
    category)`` grid of ns; a cell shows its category with the most ns,
    of tied ones the first to overlap it in table order.
    """
    if t1 <= t0 or not 0 < width <= MAX_TIMELINE_WIDTH:
        raise ValueError(
            f"need t1 > t0 and a width in 1..{MAX_TIMELINE_WIDTH}"
        )
    span = t1 - t0
    step = np.arange(width + 1, dtype=np.int64)
    # span*step//width without the product, which may overflow int64.
    edges = t0 + (span // width) * step + (span % width) * step // width
    d = take_rows(table.data, (table.end > t0) & (table.start < t1)
                  & (table.cpu < ncpus))
    row, cell, overlap = bin_overlaps(d["start"], d["end"], edges)
    hit = overlap > 0
    row, ncat = row[hit], len(CATEGORY_ORDER)
    key = (d["cpu"][row] * np.int64(width) + cell[hit]) * ncat
    key += d["category"][row]
    ns = np.zeros((ncpus, width, ncat), dtype=np.int64)
    np.add.at(ns.reshape(-1), key, overlap[hit])
    first = np.full(ns.shape, len(key))
    np.minimum.at(first.reshape(-1), key, np.arange(len(key)))
    most = ns.max(axis=2, keepdims=True)
    dominant = np.where(ns == most, first, len(key)).argmin(axis=2)
    dominant[most[..., 0] == 0] = ncat
    chars = np.array(
        [_CATEGORY_CHAR[c.value] for c in CATEGORY_ORDER] + [" "]
    )[dominant].tolist()
    lines = [f"cpu{cpu}: |{''.join(cells)}|" for cpu, cells in enumerate(chars)]
    legend = "  ".join(f"{c}={name}" for name, c in _CATEGORY_CHAR.items())
    lines.append(f"legend: {legend}  (space = user computation)")
    return "\n".join(lines)


def render_timeline(
    analysis,
    width: int,
    t0: Optional[int] = None,
    t1: Optional[int] = None,
    noise_only: bool = True,
) -> str:
    """:func:`render_ascii_trace` of the analysis's noise rows (every row
    with ``noise_only=False``) over ``[t0, t1)``, by default the whole
    span.  ``lttng-noise timeline`` prints it and the service's
    ``timeline`` render returns it."""
    table = analysis.table
    return render_ascii_trace(
        table.take(table.data["is_noise"]) if noise_only else table,
        analysis.start_ts if t0 is None else t0,
        analysis.end_ts if t1 is None else t1,
        analysis.ncpus,
        width=width,
    )


def analysis_json(analysis, noise_only: bool = True) -> Dict[str, Any]:
    """The body of ``lttng-noise report --json``; the service's analysis
    result is this plus ``per_cpu_noise_ns`` and ``analyze_text``."""
    return {
        "span_ns": analysis.span_ns,
        "ncpus": analysis.ncpus,
        "total_noise_ns": analysis.total_noise_ns(),
        "noise_fraction": analysis.noise_fraction(),
        "noise_imbalance": analysis.noise_imbalance(),
        "breakdown": {
            c.value: f for c, f in analysis.breakdown_fractions().items()
        },
        "events": event_stats_json(analysis, noise_only=noise_only),
    }


def event_stats_json(
    analysis, noise_only: bool = True
) -> Dict[str, Dict[str, float]]:
    """The ``events`` object of :func:`analysis_json`: one row of
    :meth:`stats_by_event` per display name."""
    return {
        name: {
            "freq_per_cpu_sec": stats.freq,
            "avg_ns": stats.avg,
            "max_ns": stats.max,
            "min_ns": stats.min,
            "count": stats.count,
            "total_ns": stats.total,
        }
        for name, stats in analysis.stats_by_event(
            noise_only=noise_only
        ).items()
    }


def render_analysis_summary(analysis, quanta=(), all_events=False) -> str:
    """The ``lttng-noise analyze`` body as one string.

    Shared by the CLI and the analysis service (``lttng-noise serve``):
    both render through this function, which is what makes a service
    response bit-identical to the batch CLI's stdout.  ``analysis`` may
    be a batch :class:`~repro.core.analysis.NoiseAnalysis` or a finished
    :class:`~repro.stream.analysis.StreamingAnalysis` — the query surface
    is the same.
    """
    lines = [
        f"span {fmt_ns(analysis.span_ns)}, {analysis.ncpus} cpus",
        f"total noise:     {fmt_ns(analysis.total_noise_ns())}",
        f"noise fraction:  {analysis.noise_fraction() * 100:.4f} %",
        f"noise imbalance: {analysis.noise_imbalance():.3f}",
        "breakdown:",
    ]
    for category, fraction in analysis.breakdown_fractions().items():
        lines.append(f"  {category.value:<12s} {fraction * 100:8.4f} %")
    rows = analysis.stats_by_event(noise_only=not all_events)
    lines.append(format_table(
        "Per-event statistics (freq per CPU-second)", rows
    ))
    for quantum_ns in quanta:
        timeline = analysis.noise_timeline(quantum_ns)
        peak = int(np.argmax(timeline)) if len(timeline) else 0
        lines.append(
            f"timeline @ {fmt_ns(quantum_ns)}: {len(timeline)} bins, "
            f"peak bin {peak} = {fmt_ns(int(timeline[peak]))}"
            if len(timeline) else
            f"timeline @ {fmt_ns(quantum_ns)}: empty"
        )
    return "\n".join(lines)


def full_report(analysis, meta=None) -> str:
    """One-shot text report: tables, breakdown, imbalance, task states.

    The one report body: ``lttng-noise report`` without flags prints
    exactly this on stdout, and the service's ``report`` render returns
    it, so the two are byte-identical.  Also handy in notebooks.
    """
    from repro.core.model import TraceMeta
    from repro.core.timeline import TaskTimeline
    from repro.util.units import fmt_ns

    meta = meta if meta is not None else getattr(analysis, "meta", TraceMeta())
    sections: List[str] = []
    sections.append(
        format_table(
            "Per-event statistics (freq per CPU-second, durations ns)",
            analysis.stats_by_event(noise_only=True),
        )
    )
    sections.append(
        format_breakdown("Noise breakdown", {"": analysis.breakdown_fractions()})
    )
    sections.append(
        f"total noise: {fmt_ns(analysis.total_noise_ns())} "
        f"({100 * analysis.noise_fraction():.3f} % of CPU time), "
        f"imbalance (max/mean per CPU): {analysis.noise_imbalance():.2f}"
    )
    per_cpu = analysis.per_cpu_noise_ns()
    sections.append(
        "per-CPU noise: "
        + "  ".join(f"cpu{i}={fmt_ns(int(v))}" for i, v in enumerate(per_cpu))
    )
    timeline = TaskTimeline(
        analysis.task_state_records(), meta=meta, end_ts=analysis.end_ts
    )
    rows = timeline.summary()
    if rows:
        lines = [
            "task states (fraction of observed window):",
            f"{'task':16s} {'running':>9s} {'ready':>9s} {'blocked':>9s} "
            f"{'waits':>7s} {'mean wait':>11s}",
        ]
        for pid, row in rows.items():
            lines.append(
                f"{meta.name_of(pid):16s} {row['running']:9.3f} "
                f"{row['runnable']:9.3f} {row['blocked']:9.3f} "
                f"{int(row['wait_episodes']):7d} "
                f"{fmt_ns(int(row['mean_wait_ns'])):>11s}"
            )
        sections.append("\n".join(lines))
    return "\n\n".join(sections)


def format_histogram(hist, width: int = 50, max_rows: int = 30) -> str:
    """ASCII rendering of a duration histogram (Figures 4/6/8 style)."""
    lines = []
    peak = hist.counts.max() if hist.counts.size else 0
    if peak == 0:
        return "(empty histogram)"
    step = max(1, len(hist.counts) // max_rows)
    for i in range(0, len(hist.counts), step):
        count = int(hist.counts[i : i + step].sum())
        bar = "#" * max(0, int(round(width * count / (peak * step))))
        lines.append(f"{fmt_ns(int(hist.edges[i])):>12s} | {bar} {count}")
    return "\n".join(lines)
