"""Paraver trace export (and a parser for round-trip tests).

The paper's second LTTng extension is "an external LTTng module that
generates execution traces suitable for Paraver" — the BSC visualizer used
for all the execution-trace figures (2, 5, 7).  :class:`ParaverWriter`
writes the classic three-file Paraver bundle from an analysis's
:class:`~repro.core.model.ActivityTable`, plus optional task-state
intervals from a :class:`~repro.core.timeline.TaskTimeline`:

* ``.prv``  — the trace: state records (``1:...``) showing what each thread
  was doing and event records (``2:...``) marking activity boundaries;
* ``.pcf``  — the config: names and colours for states and event types;
* ``.row``  — object labels (CPU and thread names).

Mapping: each traced task is one Paraver application task (thread 1); state
values encode the activity category (white/running = useful computation, as
in the paper's figures); punctual events carry the precise kernel event id.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.model import (
    ActivityTable,
    CATEGORY_ORDER,
    NoiseCategory,
    TraceMeta,
)
from repro.tracing.events import EVENT_NAMES

#: Paraver state values (STATES section of the .pcf).
STATE_RUNNING = 1          # useful user-mode computation (white in Fig. 2)
STATE_BLOCKED = 9          # waiting (comm/I-O)
STATE_READY = 11           # runnable but displaced (waiting for the CPU)
_CATEGORY_STATE = {
    NoiseCategory.PERIODIC: 20,
    NoiseCategory.PAGE_FAULT: 21,
    NoiseCategory.SCHEDULING: 22,
    NoiseCategory.PREEMPTION: 23,
    NoiseCategory.IO: 24,
    NoiseCategory.SERVICE: 25,
    NoiseCategory.TRACER: 26,
    NoiseCategory.OTHER: 27,
}

#: Paraver state per ActivityTable category code.
_STATE_OF_CODE = np.array(
    [_CATEGORY_STATE.get(c, STATE_RUNNING) for c in CATEGORY_ORDER],
    dtype=np.int32,
)

#: Paraver event type for kernel-activity boundaries.
EVENT_TYPE_KERNEL = 90000001


@dataclass(frozen=True)
class PrvRecord:
    """One parsed .prv record (state or event)."""

    kind: int          # 1 = state, 2 = event
    cpu: int           # 1-based
    task: int          # 1-based
    begin: int
    end: int           # == begin for events
    value: int         # state value, or event value
    etype: int = 0     # event type (events only)


class ParaverWriter:
    """Builds the .prv/.pcf/.row bundle from classified activities."""

    def __init__(self, meta: TraceMeta, ncpus: int, end_ts: int) -> None:
        self.meta = meta
        self.ncpus = ncpus
        self.end_ts = end_ts
        # Stable task numbering: application ranks first, then daemons.
        pids = sorted(meta.tasks)
        self._task_no: Dict[int, int] = {
            pid: i + 1 for i, pid in enumerate(pids)
        }

    # ------------------------------------------------------------------
    def prv_lines(self, table: ActivityTable) -> List[str]:
        """Generate .prv body lines for a table's activities, ordered by
        ``(start, cpu)``."""
        d = table.data
        d = d[np.lexsort((d["cpu"], d["start"]))]
        columns = zip(
            d["pid"].tolist(),
            (d["cpu"] + 1).tolist(),
            d["start"].tolist(),
            d["end"].tolist(),
            d["event"].tolist(),
            _STATE_OF_CODE[d["category"]].tolist(),
        )
        lines: List[str] = []
        task_no_of = self._task_no
        for pid, cpu, start, end, event, state in columns:
            task_no = task_no_of.get(pid, 1)
            lines.append(f"1:{cpu}:1:{task_no}:1:{start}:{end}:{state}")
            lines.append(
                f"2:{cpu}:1:{task_no}:1:{start}:{EVENT_TYPE_KERNEL}:{event}"
            )
            lines.append(
                f"2:{cpu}:1:{task_no}:1:{end}:{EVENT_TYPE_KERNEL}:0"
            )
        return lines

    def state_lines(self, timeline) -> List[str]:
        """Task-state records from a :class:`repro.core.timeline.TaskTimeline`.

        Renders what Paraver's state view shows between kernel activities:
        running (white), ready-but-displaced, and blocked intervals.
        """
        from repro.simkernel.task import TaskState

        value_of = {
            TaskState.RUNNING: STATE_RUNNING,
            TaskState.RUNNABLE: STATE_READY,
            TaskState.BLOCKED: STATE_BLOCKED,
        }
        lines: List[str] = []
        for pid in timeline.pids():
            task_no = self._task_no.get(pid, 1)
            for interval in timeline.intervals(pid):
                value = value_of.get(interval.state)
                if value is None:
                    continue
                lines.append(
                    f"1:1:1:{task_no}:1:{interval.start}:{interval.end}:{value}"
                )
        lines.sort(key=lambda l: int(l.split(":")[5]))
        return lines

    def header(self) -> str:
        ntasks = max(1, len(self._task_no))
        node_list = ",".join("1" for _ in range(ntasks))
        return (
            f"#Paraver (01/01/2011 at 00:00):{self.end_ts}_ns:"
            f"1({self.ncpus}):1:{ntasks}({node_list})"
        )

    def write_prv(
        self, path: str, table: ActivityTable, timeline=None
    ) -> None:
        with open(path, "w") as fp:
            fp.write(self.header() + "\n")
            if timeline is not None:
                for line in self.state_lines(timeline):
                    fp.write(line + "\n")
            for line in self.prv_lines(table):
                fp.write(line + "\n")

    # ------------------------------------------------------------------
    def pcf_text(self) -> str:
        lines = [
            "DEFAULT_OPTIONS",
            "",
            "LEVEL               THREAD",
            "UNITS               NANOSEC",
            "",
            "STATES",
            f"{STATE_RUNNING}    Running",
            f"{STATE_BLOCKED}    Blocked",
            f"{STATE_READY}    Ready (displaced)",
        ]
        for category, value in _CATEGORY_STATE.items():
            lines.append(f"{value}    OS noise: {category.value}")
        lines += [
            "",
            "STATES_COLOR",
            f"{STATE_RUNNING}    {{255,255,255}}",   # white, as in the paper
            f"{_CATEGORY_STATE[NoiseCategory.PERIODIC]}    {{0,0,0}}",      # black
            f"{_CATEGORY_STATE[NoiseCategory.PAGE_FAULT]}    {{255,0,0}}",  # red
            f"{_CATEGORY_STATE[NoiseCategory.SCHEDULING]}    {{255,160,0}}",# orange
            f"{_CATEGORY_STATE[NoiseCategory.PREEMPTION]}    {{0,160,0}}",  # green
            f"{_CATEGORY_STATE[NoiseCategory.IO]}    {{0,0,255}}",          # blue
            "",
            "EVENT_TYPE",
            f"9    {EVENT_TYPE_KERNEL}    Kernel activity",
            "VALUES",
            "0      (end)",
        ]
        for event, name in sorted(EVENT_NAMES.items()):
            lines.append(f"{int(event)}      {name}")
        from repro.core.model import PREEMPT_EVENT, TRACER_PREEMPT_EVENT

        lines.append(f"{PREEMPT_EVENT}      preemption")
        lines.append(f"{TRACER_PREEMPT_EVENT}      tracer preemption")
        return "\n".join(lines) + "\n"

    def row_text(self) -> str:
        lines = [f"LEVEL CPU SIZE {self.ncpus}"]
        for i in range(self.ncpus):
            lines.append(f"cpu{i}")
        tasks = sorted(self._task_no.items(), key=lambda kv: kv[1])
        lines.append(f"LEVEL THREAD SIZE {len(tasks)}")
        for pid, _ in tasks:
            lines.append(f"{self.meta.name_of(pid)} ({pid})")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    def export(
        self, basename: str, table: ActivityTable, timeline=None
    ) -> Tuple[str, str, str]:
        """Write the full bundle; returns the three file paths."""
        prv = basename + ".prv"
        pcf = basename + ".pcf"
        row = basename + ".row"
        self.write_prv(prv, table, timeline=timeline)
        with open(pcf, "w") as fp:
            fp.write(self.pcf_text())
        with open(row, "w") as fp:
            fp.write(self.row_text())
        return prv, pcf, row


# ----------------------------------------------------------------------
# Parsing (round-trip validation)
# ----------------------------------------------------------------------

def parse_prv(path_or_text: str) -> Tuple[str, List[PrvRecord]]:
    """Parse a .prv file (or its text); returns (header, records)."""
    if os.path.exists(path_or_text):
        with open(path_or_text) as fp:
            text = fp.read()
    else:
        text = path_or_text
    lines = text.strip().splitlines()
    if not lines or not lines[0].startswith("#Paraver"):
        raise ValueError("not a Paraver trace: missing #Paraver header")
    header = lines[0]
    records: List[PrvRecord] = []
    for line in lines[1:]:
        if not line.strip():
            continue
        parts = line.split(":")
        kind = int(parts[0])
        if kind == 1:
            if len(parts) != 8:
                raise ValueError(f"malformed state record: {line!r}")
            records.append(
                PrvRecord(
                    kind=1,
                    cpu=int(parts[1]),
                    task=int(parts[3]),
                    begin=int(parts[5]),
                    end=int(parts[6]),
                    value=int(parts[7]),
                )
            )
        elif kind == 2:
            if len(parts) < 8 or (len(parts) - 6) % 2 != 0:
                raise ValueError(f"malformed event record: {line!r}")
            t = int(parts[5])
            for i in range(6, len(parts), 2):
                records.append(
                    PrvRecord(
                        kind=2,
                        cpu=int(parts[1]),
                        task=int(parts[3]),
                        begin=t,
                        end=t,
                        value=int(parts[i + 1]),
                        etype=int(parts[i]),
                    )
                )
        else:
            raise ValueError(f"unsupported record kind {kind} in {line!r}")
    return header, records
