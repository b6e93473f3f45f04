"""Chrome trace-event (Perfetto / chrome://tracing) export.

The paper's offline module targets Paraver because that is BSC's tool; it
notes "other formats can be generated relatively easily by performing a
different offline transformation of the original trace file".  This is that
other transformation: the Trace Event Format consumed by chrome://tracing,
Perfetto UI and speedscope.

Mapping, from an analysis's :class:`~repro.core.model.ActivityTable`:

* each CPU is a Chrome *process* (``pid`` = cpu index), so the timeline
  groups kernel activity per core, like the paper's figures;
* within a CPU, track 0 carries the kernel activities as complete ("X")
  events — nesting renders as stacked slices, exactly our frame stack;
* per-task state intervals of an optional
  :class:`~repro.core.timeline.TaskTimeline` go to a separate "tasks"
  process.

Timestamps are microseconds (floats), per the format.  The event builders
live here; the document itself is written by
:func:`repro.obs.export.trace_event_json`, the serializer the pipeline's
self-profile uses too.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.model import (
    ActivityTable,
    CATEGORY_ORDER,
    NoiseCategory,
    TraceMeta,
)
from repro.obs.export import write_trace_events

#: Category -> Chrome color name (close to the paper's palette).
_COLOR = {
    NoiseCategory.PERIODIC: "black",
    NoiseCategory.PAGE_FAULT: "terrible",       # red
    NoiseCategory.SCHEDULING: "bad",            # orange
    NoiseCategory.PREEMPTION: "good",           # green
    NoiseCategory.IO: "thread_state_runnable",  # blue
    NoiseCategory.SERVICE: "grey",
    NoiseCategory.TRACER: "grey",
    NoiseCategory.OTHER: "yellow",
}


def activities_to_events(
    table: ActivityTable, meta: Optional[TraceMeta] = None
) -> List[dict]:
    """Convert a table's activities into Trace Event Format dicts."""
    meta = meta if meta is not None else TraceMeta()
    d = table.data
    context_of: Dict[int, str] = {}
    events: List[dict] = []
    rows = zip(
        table.names().tolist(),
        d["category"].tolist(),
        d["start"].tolist(),
        d["total_ns"].tolist(),
        d["cpu"].tolist(),
        d["self_ns"].tolist(),
        d["pid"].tolist(),
        d["is_noise"].tolist(),
        d["depth"].tolist(),
    )
    for name, code, start, total, cpu, self_ns, pid, noise, depth in rows:
        category = CATEGORY_ORDER[code]
        context = context_of.get(pid)
        if context is None:
            context = context_of[pid] = meta.name_of(pid)
        events.append(
            {
                "name": name,
                "cat": category.value,
                "ph": "X",
                "ts": start / 1000.0,
                "dur": total / 1000.0,
                "pid": cpu,
                "tid": 0,
                "cname": _COLOR.get(category, "grey"),
                "args": {
                    "self_ns": self_ns,
                    "context": context,
                    "noise": noise,
                    "depth": depth,
                },
            }
        )
    return events


def timeline_to_events(timeline, meta: Optional[TraceMeta] = None) -> List[dict]:
    """Per-task state intervals as slices in a synthetic 'tasks' process."""
    from repro.simkernel.task import TaskState

    meta = meta if meta is not None else TraceMeta()
    state_names = {
        TaskState.RUNNING: "running",
        TaskState.RUNNABLE: "ready",
        TaskState.BLOCKED: "blocked",
    }
    events: List[dict] = []
    for pid in timeline.pids():
        for interval in timeline.intervals(pid):
            name = state_names.get(interval.state)
            if name is None:
                continue
            events.append(
                {
                    "name": name,
                    "cat": "task-state",
                    "ph": "X",
                    "ts": interval.start / 1000.0,
                    "dur": interval.duration_ns / 1000.0,
                    "pid": 1_000_000,  # synthetic "tasks" process
                    "tid": pid,
                }
            )
    return events


def trace_events(
    table: ActivityTable,
    meta: Optional[TraceMeta] = None,
    timeline=None,
    ncpus: Optional[int] = None,
) -> List[dict]:
    """Every event of the exported trace: the activities, the optional
    task-state slices and the process/thread naming metadata.

    ``ncpus`` names CPUs ``0..ncpus-1``; without it, the CPUs that
    appear in the table are named.
    """
    meta = meta if meta is not None else TraceMeta()
    events = activities_to_events(table, meta)
    if timeline is not None:
        events += timeline_to_events(timeline, meta)
    if ncpus is not None:
        cpus = range(ncpus)
    else:
        cpus = sorted(set(table.data["cpu"].tolist()))
    for cpu in cpus:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": int(cpu),
                "args": {"name": f"cpu{cpu}"},
            }
        )
    if timeline is not None:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1_000_000,
                "args": {"name": "tasks"},
            }
        )
        for pid in timeline.pids():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1_000_000,
                    "tid": pid,
                    "args": {"name": meta.name_of(pid)},
                }
            )
    return events


def analysis_trace_events(analysis) -> List[dict]:
    """:func:`trace_events` of one analysis: its table, the task states
    of its ``TASK_STATE`` records and CPUs ``0..ncpus-1``.  ``lttng-noise export
    --chrome`` writes these events and the service's ``chrome`` render
    returns them."""
    from repro.core.timeline import TaskTimeline

    timeline = TaskTimeline(
        analysis.task_state_records(), meta=analysis.meta,
        end_ts=analysis.end_ts,
    )
    return trace_events(
        analysis.table, analysis.meta, timeline=timeline,
        ncpus=analysis.ncpus,
    )


def export_chrome_trace(
    path: str,
    table: ActivityTable,
    meta: Optional[TraceMeta] = None,
    timeline=None,
    ncpus: Optional[int] = None,
) -> int:
    """Write a .json trace loadable in chrome://tracing / Perfetto.

    Returns the number of events written.
    """
    return write_trace_events(
        path, trace_events(table, meta, timeline=timeline, ncpus=ncpus)
    )
