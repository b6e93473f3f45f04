"""Helpers to hand-build trace record arrays for analyzer unit tests."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.engine import StreamEngine, canonical_order
from repro.core.model import ActivityTable, TaskInfo, TraceMeta
from repro.simkernel.task import TaskKind
from repro.tracing.events import (
    Ev,
    Flag,
    RECORD_DTYPE,
    encode_switch,
    encode_task_state,
)

RANK = 1000
RANK2 = 1001
DAEMON = 100
TRACERD = 101
IDLE = 0


def meta() -> TraceMeta:
    return TraceMeta(
        {
            RANK: TaskInfo(RANK, "rank0", TaskKind.RANK),
            RANK2: TaskInfo(RANK2, "rank1", TaskKind.RANK),
            DAEMON: TaskInfo(DAEMON, "rpciod/0", TaskKind.KDAEMON),
            TRACERD: TaskInfo(TRACERD, "lttd", TaskKind.TRACERD),
            IDLE: TaskInfo(IDLE, "swapper", TaskKind.IDLE),
        }
    )


class RecordBuilder:
    """Fluent builder for synthetic record streams."""

    def __init__(self) -> None:
        self.rows: List[Tuple[int, int, int, int, int, int]] = []

    def raw(self, t, event, cpu=0, flag=Flag.POINT, pid=RANK, arg=0):
        self.rows.append((t, int(event), cpu, int(flag), pid, arg))
        return self

    def entry(self, t, event, cpu=0, pid=RANK, arg=0):
        return self.raw(t, event, cpu, Flag.ENTRY, pid, arg)

    def exit(self, t, event, cpu=0, pid=RANK, arg=0):
        return self.raw(t, event, cpu, Flag.EXIT, pid, arg)

    def activity(self, t0, t1, event, cpu=0, pid=RANK, arg=0):
        return self.entry(t0, event, cpu, pid, arg).exit(t1, event, cpu, pid, arg)

    def state(self, t, pid, state, cpu=0):
        return self.raw(
            t, Ev.TASK_STATE, cpu, Flag.POINT, pid, encode_task_state(pid, state)
        )

    def switch(self, t, prev, nxt, cpu=0):
        return self.raw(
            t, Ev.SCHED_SWITCH, cpu, Flag.POINT, nxt, encode_switch(prev, nxt)
        )

    def build(self) -> np.ndarray:
        arr = np.zeros(len(self.rows), dtype=RECORD_DTYPE)
        # Stable sort by time only: same-timestamp records keep emission
        # order, exactly as per-CPU ring buffers preserve it.
        for i, row in enumerate(sorted(self.rows, key=lambda r: r[0])):
            arr[i] = row
        return arr


def engine_table(records: np.ndarray, end_ts: int, strict: bool = False) -> ActivityTable:
    """One :class:`StreamEngine` pass over ``records``, each CPU's rows fed
    as one block and open frames truncated at ``end_ts``; rows in table
    order.  This is what ``NoiseAnalysis`` builds, with the trace end and
    ``strict`` under the test's control."""
    m = meta()
    blocks: List[Tuple[np.ndarray, np.ndarray]] = []
    engine = StreamEngine(
        m, on_rows=lambda block, seq: blocks.append((block.data, seq)),
        strict=strict,
    )
    for cpu in np.unique(records["cpu"]).tolist():
        engine.feed_records(cpu, records[records["cpu"] == cpu])
    engine.finish(end_ts)
    if not blocks:
        return ActivityTable.empty(meta=m)
    data = np.concatenate([block for block, _ in blocks])
    seq = np.concatenate([seq for _, seq in blocks])
    return ActivityTable(data[canonical_order(data, seq)], meta=m)
