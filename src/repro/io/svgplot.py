"""Dependency-free SVG charts for regenerating the paper's figures.

matplotlib is not a dependency of this library; these small generators
cover exactly the figure shapes the paper uses:

* :func:`spike_chart` — Figures 1a/1b: per-quantum noise spikes over time;
* :func:`histogram_chart` — Figures 4/6/8: duration distributions;
* :func:`stacked_bars` — Figure 3: the five-category breakdown per app;
* :func:`trace_strip` — Figures 2/5/7: per-CPU activity strips.

The output is plain SVG 1.1, viewable in any browser.  Layout is simple and
deterministic; no text measurement, so long labels may overflow — keep them
short, as the paper's are.
"""

from __future__ import annotations

import html
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.core.model import ActivityTable, CATEGORY_ORDER

#: Category colours, matching the paper's figures and our Paraver export.
CATEGORY_COLORS = {
    "periodic": "#000000",
    "page fault": "#d62728",
    "scheduling": "#ff7f0e",
    "preemption": "#2ca02c",
    "io": "#1f77b4",
    "service": "#aaaaaa",
    "tracer": "#cccccc",
    "other": "#bcbd22",
}

_MARGIN = 50


def _svg(width: int, height: int, body: List[str], title: str) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
        f'<rect width="{width}" height="{height}" fill="white"/>'
        f'<text x="{width / 2}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{html.escape(title)}</text>'
    )
    return head + "".join(body) + "</svg>"


def _axes(width: int, height: int) -> str:
    x0, y0 = _MARGIN, height - _MARGIN
    x1, y1 = width - 20, 30
    return (
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>'
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>'
    )


def _label(x: float, y: float, text: str, anchor: str = "middle", size=10) -> str:
    return (
        f'<text x="{x}" y="{y}" text-anchor="{anchor}" '
        f'font-family="sans-serif" font-size="{size}">{html.escape(text)}</text>'
    )


def spike_chart(
    times: Sequence[float],
    values: Sequence[float],
    title: str,
    x_label: str = "time",
    y_label: str = "noise (ns)",
    width: int = 900,
    height: int = 300,
    color: str = "#1f77b4",
) -> str:
    """Vertical-spike series — the FTQ / synthetic-noise-chart look."""
    if len(times) != len(values):
        raise ValueError("times and values must align")
    body = [_axes(width, height)]
    if times:
        t_min, t_max = min(times), max(times)
        v_max = max(max(values), 1)
        span_x = (t_max - t_min) or 1
        plot_w = width - 20 - _MARGIN
        plot_h = height - _MARGIN - 30
        y0 = height - _MARGIN
        for t, v in zip(times, values):
            x = _MARGIN + (t - t_min) / span_x * plot_w
            y = y0 - (v / v_max) * plot_h
            body.append(
                f'<line x1="{x:.1f}" y1="{y0}" x2="{x:.1f}" y2="{y:.1f}" '
                f'stroke="{color}" stroke-width="1"/>'
            )
        body.append(_label(_MARGIN - 5, 35, f"{v_max:.0f}", anchor="end"))
    body.append(_label(width / 2, height - 10, x_label))
    body.append(_label(15, height / 2, y_label, size=10))
    return _svg(width, height, body, title)


def histogram_chart(
    edges: Sequence[float],
    counts: Sequence[int],
    title: str,
    x_label: str = "duration (ns)",
    width: int = 700,
    height: int = 300,
    color: str = "#d62728",
) -> str:
    """Bar histogram — the Figure 4/6/8 look."""
    if len(edges) != len(counts) + 1:
        raise ValueError("need len(edges) == len(counts) + 1")
    body = [_axes(width, height)]
    if counts and max(counts) > 0:
        c_max = max(counts)
        lo, hi = edges[0], edges[-1]
        span = (hi - lo) or 1
        plot_w = width - 20 - _MARGIN
        plot_h = height - _MARGIN - 30
        y0 = height - _MARGIN
        for i, count in enumerate(counts):
            x = _MARGIN + (edges[i] - lo) / span * plot_w
            w = max(1.0, (edges[i + 1] - edges[i]) / span * plot_w - 1)
            h = (count / c_max) * plot_h
            body.append(
                f'<rect x="{x:.1f}" y="{y0 - h:.1f}" width="{w:.1f}" '
                f'height="{h:.1f}" fill="{color}"/>'
            )
        body.append(_label(_MARGIN, height - 32, f"{lo:.0f}", anchor="start"))
        body.append(_label(width - 20, height - 32, f"{hi:.0f}", anchor="end"))
        body.append(_label(_MARGIN - 5, 35, str(c_max), anchor="end"))
    body.append(_label(width / 2, height - 10, x_label))
    return _svg(width, height, body, title)


def stacked_bars(
    rows: Mapping[str, Mapping[str, float]],
    title: str,
    width: int = 700,
    height: int = 360,
    categories: Optional[Sequence[str]] = None,
) -> str:
    """Stacked 100 % bars — the Figure 3 breakdown look.

    ``rows``: app name -> {category name -> fraction}.
    """
    if not rows:
        raise ValueError("no rows")
    if categories is None:
        categories = list(CATEGORY_COLORS)
    body = [_axes(width, height)]
    plot_w = width - 20 - _MARGIN
    plot_h = height - _MARGIN - 30
    y0 = height - _MARGIN
    n = len(rows)
    bar_w = plot_w / n * 0.6
    for i, (name, fractions) in enumerate(rows.items()):
        x = _MARGIN + plot_w * (i + 0.2) / n
        y = y0
        for category in categories:
            fraction = fractions.get(category, 0.0)
            if fraction <= 0:
                continue
            h = fraction * plot_h
            color = CATEGORY_COLORS.get(category, "#999999")
            body.append(
                f'<rect x="{x:.1f}" y="{y - h:.1f}" width="{bar_w:.1f}" '
                f'height="{h:.1f}" fill="{color}"/>'
            )
            y -= h
        body.append(_label(x + bar_w / 2, y0 + 14, name))
    # Legend.
    lx = _MARGIN
    for category in categories:
        color = CATEGORY_COLORS.get(category, "#999999")
        body.append(
            f'<rect x="{lx}" y="{height - 24}" width="10" height="10" '
            f'fill="{color}"/>'
        )
        body.append(_label(lx + 14, height - 15, category, anchor="start", size=9))
        lx += 14 + 7 * len(category) + 14
    return _svg(width, height, body, title)


def trace_strip(
    table: ActivityTable,
    t0: int,
    t1: int,
    ncpus: int,
    title: str,
    width: int = 900,
    row_height: int = 26,
) -> str:
    """Per-CPU activity strips — the execution-trace figures (2, 5, 7):
    one rectangle per table row inside ``[t0, t1)``, in table order."""
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    height = 40 + ncpus * row_height + 30
    body: List[str] = []
    span = t1 - t0
    plot_w = width - 20 - _MARGIN
    for cpu in range(ncpus):
        y = 30 + cpu * row_height
        body.append(
            f'<rect x="{_MARGIN}" y="{y}" width="{plot_w}" '
            f'height="{row_height - 6}" fill="#f7f7f7" stroke="#dddddd"/>'
        )
        body.append(_label(_MARGIN - 6, y + row_height / 2, f"cpu{cpu}", anchor="end"))
    m = (table.end > t0) & (table.start < t1) & (table.cpu < ncpus)
    start, end = table.start[m], table.end[m]
    xs = _MARGIN + np.maximum(0, start - t0) / span * plot_w
    ws = (np.minimum(end, t1) - np.maximum(start, t0)) / span * plot_w
    for x, w, cpu, code, name, self_ns in zip(
        xs.tolist(), np.maximum(0.6, ws).tolist(), table.cpu[m].tolist(),
        table.category[m].tolist(), table.names()[m].tolist(),
        table.self_ns[m].tolist(),
    ):
        color = CATEGORY_COLORS.get(CATEGORY_ORDER[code].value, "#999999")
        body.append(
            f'<rect x="{x:.2f}" y="{30 + cpu * row_height}" width="{w:.2f}" '
            f'height="{row_height - 6}" fill="{color}">'
            f"<title>{html.escape(name)}: {self_ns} ns</title></rect>"
        )
    return _svg(width, height, body, title)


def write_svg(path: str, svg: str) -> None:
    with open(path, "w") as fp:
        fp.write(svg)
