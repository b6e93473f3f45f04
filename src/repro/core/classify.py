"""Noise vs. service classification.

The paper's definition (Section III-A): OS noise is every kernel activity
that (a) was **not explicitly requested** by the application (a ``read``
system call is service, a timer tick is not), and (b) occurred while an
application process was **runnable** — "we do not consider a kernel
interruption as noise if, when it occurs, a process is blocked waiting for
communication".

The runnable test per activity:

* context pid is an application rank → the rank was on-CPU, hence runnable;
* context pid is a daemon → noise only if the daemon had displaced a
  runnable rank (the preemption windows of
  :class:`repro.core.nesting.PreemptionTracker` know this);
* context pid is idle → no application was runnable on that CPU → not noise.

Activities of the tracer's own collection daemon are excluded entirely
(paper footnote 4).

Classification is columnar: categories come from an event-id lookup table,
the context kind from a :class:`~repro.core.model.PidKinds` slot lookup
(one ``kind_of`` call per distinct pid over the whole trace), and the
displaced-rank test from one ``searchsorted`` of (cpu, start) keys against
the preemption windows.  The analysis engine (:mod:`repro.core.engine`)
applies this kernel to each block of rows against the retained window
history, in batch and streaming alike.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import (
    ActivityTable,
    CATEGORY_CODE,
    EVENT_CATEGORY,
    NoiseCategory,
    PREEMPT_EVENT,
    PidKinds,
    TRACER_PREEMPT_EVENT,
    cpu_time_keys,
)
from repro.simkernel.task import TaskKind

#: event id -> category code (covers the full u2 event-id space).
_CATEGORY_LUT = np.full(
    65536, CATEGORY_CODE[NoiseCategory.OTHER], dtype=np.int8
)
for _ev, _cat in EVENT_CATEGORY.items():
    _CATEGORY_LUT[int(_ev)] = CATEGORY_CODE[_cat]

_SERVICE = CATEGORY_CODE[NoiseCategory.SERVICE]
_TRACER = CATEGORY_CODE[NoiseCategory.TRACER]


def _classify_inplace(
    kacts: ActivityTable, preemptions: ActivityTable, pid_kinds: PidKinds
) -> None:
    """Set category and noise flag on both tables.  ``preemptions`` must
    hold every window that can cover a row of ``kacts`` (the last one
    starting at or before the row, per CPU); ``pid_kinds`` resolves the
    context kind of each row's pid."""
    kd = kacts.data
    pd = preemptions.data

    # Preemption windows: category from the pseudo event id; noise unless
    # caused by the tracer daemon or nobody was displaced.
    pd["category"] = _CATEGORY_LUT[pd["event"]]
    pd["is_noise"] = (pd["event"] == PREEMPT_EVENT) & (
        pd["displaced_pid"] >= 0
    )

    if not len(kd):
        return
    kd["category"] = _CATEGORY_LUT[kd["event"]]
    cats = kd["category"]
    eligible = (cats != _SERVICE) & (cats != _TRACER)

    # Context kind per pid (one meta lookup per distinct pid).
    slots = pid_kinds.slots(kd["pid"].astype(np.int64))
    kinds = pid_kinds.kind[slots]
    is_rank = kinds == int(TaskKind.RANK)
    is_idle = kinds == int(TaskKind.IDLE)

    noise = eligible & is_rank
    daemon_rows = (eligible & ~is_rank & ~is_idle).nonzero()[0]
    wsel = (
        (pd["event"] == PREEMPT_EVENT) | (pd["event"] == TRACER_PREEMPT_EVENT)
    ).nonzero()[0]
    if len(daemon_rows) and len(wsel):
        # Daemon context: noise only if the daemon displaced a runnable
        # rank — then this activity delays that rank too.  The covering
        # window is the last one on the CPU starting at or before the
        # activity.
        w_key, row_key = cpu_time_keys(
            (pd["cpu"][wsel], pd["start"][wsel]),
            (kd["cpu"][daemon_rows], kd["start"][daemon_rows]),
        )
        worder = w_key.argsort(kind="stable")
        wsel = wsel[worder]
        idx = w_key[worder].searchsorted(row_key, side="right") - 1
        ok = idx >= 0
        ok[ok] = pd["cpu"][wsel[idx[ok]]] == kd["cpu"][daemon_rows[ok]]
        cover = wsel[idx[ok]]
        rows = daemon_rows[ok]
        hit = (pd["end"][cover] > kd["start"][rows]) & (
            pd["displaced_pid"][cover] >= 0
        )
        noise[rows[hit]] = True
    kd["is_noise"] = noise

