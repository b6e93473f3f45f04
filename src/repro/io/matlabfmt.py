"""The paper's "Matlab module" equivalent: numeric data export.

LTTng-noise's second output path is "a data format that can be used as input
to Matlab", from which the paper derives the synthetic OS noise chart and
the histograms.  Here the same role is played by:

* :func:`activities_to_csv` — flat per-activity table (one row per
  reconstructed kernel activity) loadable anywhere;
* :func:`export_npz` — numpy archive with the activity columns, the
  synthetic chart series and per-event duration arrays, for programmatic
  post-processing (the library's own chart/histogram code consumes the
  in-memory form; this is the at-rest form).

Both read an analysis's :class:`~repro.core.model.ActivityTable` column by
column.
"""

from __future__ import annotations

import csv
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.analysis import NoiseAnalysis
from repro.core.chart import SyntheticNoiseChart
from repro.core.model import ActivityTable, CATEGORY_ORDER

CSV_COLUMNS = (
    "start",
    "end",
    "cpu",
    "pid",
    "event",
    "name",
    "category",
    "total_ns",
    "self_ns",
    "depth",
    "is_noise",
    "truncated",
)


def activities_to_csv(path: str, table: ActivityTable) -> int:
    """Write one CSV row per activity of the table; returns the row count."""
    d = table.data
    rows = zip(
        d["start"].tolist(),
        d["end"].tolist(),
        d["cpu"].tolist(),
        d["pid"].tolist(),
        d["event"].tolist(),
        table.names().tolist(),
        [CATEGORY_ORDER[c].value for c in d["category"].tolist()],
        d["total_ns"].tolist(),
        d["self_ns"].tolist(),
        d["depth"].tolist(),
        d["is_noise"].astype(np.int8).tolist(),
        d["truncated"].astype(np.int8).tolist(),
    )
    with open(path, "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
    return len(table)


def activity_arrays(table: ActivityTable) -> Dict[str, np.ndarray]:
    """The table's columns as the NPZ bundle stores them."""
    d = table.data
    return {
        "start": d["start"].astype(np.int64),
        "end": d["end"].astype(np.int64),
        "cpu": d["cpu"].astype(np.int16),
        "pid": d["pid"].astype(np.int32),
        "event": d["event"].astype(np.int32),
        "total_ns": d["total_ns"].astype(np.int64),
        "self_ns": d["self_ns"].astype(np.int64),
        "depth": d["depth"].astype(np.int16),
        "is_noise": d["is_noise"].copy(),
    }


def export_npz(
    path: str,
    analysis: NoiseAnalysis,
    chart_cpu: Optional[int] = None,
    events_for_histograms: Sequence[str] = (
        "page_fault",
        "run_timer_softirq",
        "run_rebalance_domains",
    ),
) -> None:
    """Write the full numeric bundle: activities + chart + histogram data."""
    payload = activity_arrays(analysis.table)
    chart = SyntheticNoiseChart(analysis, cpu=chart_cpu)
    times, noise = chart.series()
    payload["chart_times"] = times
    payload["chart_noise_ns"] = noise
    for name in events_for_histograms:
        payload[f"durations_{name}"] = analysis.durations(name)
    payload["span_ns"] = np.array([analysis.span_ns])
    payload["ncpus"] = np.array([analysis.ncpus])
    np.savez_compressed(path, **payload)
