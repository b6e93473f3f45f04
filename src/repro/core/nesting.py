"""Nested-activity reconstruction kernels.

Two reconstructions over a block of records:

1. **Paired activities** (:func:`pair_block`): a per-CPU stack matches
   ENTRY/EXIT records, attributing *self time* (total minus nested
   children) to every activity.  "We took particular care of nested events
   ... handling nested events is particularly important for obtaining
   correct statistics" — this is that care.

2. **Preemption windows** (:class:`PreemptionTracker`): scheduler point
   events (``sched_switch`` / ``task_state``) are folded into pseudo
   activities covering every interval in which a daemon held a CPU while a
   displaced application rank was runnable.  Their self time likewise
   excludes kernel activities nested inside the window
   (:func:`_subtract_nested_table`).

Both are block kernels with explicit carried state: :func:`pair_block`
matches one block of records against the open frames an
:class:`ActivityStackWalker` carries in, and :class:`PreemptionTracker`
carries the scheduler state machine.  :mod:`repro.core.engine` drives
them, for a whole trace in batch and once per window in streaming.
Nested time subtraction for windows is a ``searchsorted`` + prefix-sum
over the sorted depth-0 intervals.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.model import (
    ActivityTable,
    PREEMPT_EVENT,
    TRACER_PREEMPT_EVENT,
    TraceMeta,
    cpu_time_keys,
)
from repro.simkernel.task import TaskKind, TaskState
from repro.tracing.events import (
    Ev,
    Flag,
    event_name,
)

#: ``(cpu, gap_ts, pos)`` lost-event gap markers: before the paired record
#: at index ``pos`` of a block, events on ``cpu`` were lost up to ``gap_ts``
#: (see :meth:`repro.core.engine.StreamEngine.feed_gap`).
GapMarkers = Sequence[Tuple[int, int, int]]

_ENTRY = int(Flag.ENTRY)
_EXIT = int(Flag.EXIT)


def pair_block(
    sel: np.ndarray,
    walker: "ActivityStackWalker",
    meta: Optional[TraceMeta] = None,
    gaps: Optional[GapMarkers] = None,
) -> ActivityTable:
    """Match one block of paired records against the walker's open frames.

    Returns the frames that close inside the block (gap truncations
    included), in EXIT order; frames still open at the block end stay on
    ``walker``, with their nested-so-far time, for the next block.  A
    block with gap markers (positions into ``sel``), or one the vectorized
    matcher rejects, takes the sequential walk over the same stacks.
    """
    if not gaps:
        table = _match_frames_vectorized(sel, walker, meta)
        if table is not None:
            return table
        # Malformed block (unmatched or mismatched EXITs): fall back to
        # the sequential stack walk.  The counter makes the rate of this
        # slow path a first-class signal.
        if obs.enabled():
            obs.counter("nesting.stack_walk_fallback").inc()
    return _match_frames_walk(sel, walker, meta, gaps)


def _match_frames_vectorized(
    sel: np.ndarray,
    walker: "ActivityStackWalker",
    meta: Optional[TraceMeta],
) -> Optional[ActivityTable]:
    """Branch-free ENTRY/EXIT matching for well-formed blocks.

    The walker's open frames are prepended as ENTRY tokens.  Within one
    CPU, tokens that share a frame depth strictly alternate ENTRY, EXIT,
    ENTRY, ... — a frame at depth d must close before the next frame at
    depth d can open — so matching reduces to a stable sort by (cpu,
    frame depth) and pairing consecutive tokens.  Nested time is then a
    searchsorted + prefix-sum over each frame's direct children.

    Returns ``None`` (walker untouched) when the block is not well formed
    (an EXIT with no open frame, or one whose event does not match the
    frame it would close); those blocks take :func:`_match_frames_walk`,
    which implements the skip/strict semantics.
    """
    flag = sel["flag"]
    is_entry = flag == _ENTRY
    keep = is_entry | (flag == _EXIT)
    if not keep.all():
        sel = sel[keep]
        is_entry = is_entry[keep]
    if not len(sel):
        return ActivityTable.empty(meta=meta)

    # Token columns; per-token arrays below are small, so numpy methods
    # (not np.* wrappers) keep the per-block constant down.
    cpu = sel["cpu"].astype(np.int64)
    time_ = sel["time"].astype(np.int64)
    event = sel["event"]
    pid = sel["pid"]
    arg = sel["arg"]
    nested0 = None
    seed = walker.seed()
    if seed is not None:
        s_cpu, s_event, s_start, s_pid, s_arg, s_nested = seed
        cpu = np.concatenate((s_cpu, cpu))
        time_ = np.concatenate((s_start, time_))
        event = np.concatenate((s_event, event))
        pid = np.concatenate((s_pid, pid))
        arg = np.concatenate((s_arg, arg))
        is_entry = np.concatenate(
            (np.ones(len(s_cpu), dtype=bool), is_entry)
        )
        nested0 = np.concatenate((s_nested, np.zeros(len(sel), np.int64)))

    # Stable sort by CPU: per-CPU streams are already in time order, and
    # carried frames lead their CPU's segment bottom-up.  Positions below
    # are in this order; ``co`` maps them back to token indices.
    co = cpu.argsort(kind="stable")
    n = len(co)
    cpu = cpu[co]
    is_entry = is_entry[co]

    # Running stack depth within each CPU segment.
    seg_heads, seg_ends = _runs(cpu)
    depth_after = (is_entry * 2 - 1).cumsum()
    base = depth_after[seg_heads - 1]
    base[0] = 0
    depth_after -= base.repeat(seg_ends - seg_heads)
    if depth_after.min() < 0:
        return None  # an EXIT with no open frame
    fd = depth_after - is_entry  # frame depth: c-1 for ENTRY, c for EXIT

    # Group by (cpu, frame depth); inside a group tokens must alternate
    # ENTRY (even offset) / EXIT (odd offset), optionally ending on an
    # ENTRY still open at the block end.
    group = cpu * (int(fd.max()) + 1) + fd
    go = group.argsort(kind="stable")
    g_heads, g_ends = _runs(group[go])
    even = ((np.arange(n) - g_heads.repeat(g_ends - g_heads)) & 1) == 0
    if not (is_entry[go] == even).all():
        return None  # broken alternation: some EXIT was skipped
    exits_g = (~even).nonzero()[0]
    ent = go[exits_g - 1]
    ex = go[exits_g]
    t_ent = co[ent]
    t_ex = co[ex]
    if not (event[t_ent] == event[t_ex]).all():
        return None  # EXIT closing a different event's frame

    # Closed frames, ordered like the walk's appends (EXIT-record order)
    # so the final stable sort keeps identical tie order.
    closed_order = t_ex.argsort()
    ent = ent[closed_order]
    ex = ex[closed_order]
    t_ent = t_ent[closed_order]
    t_ex = t_ex[closed_order]
    cl_start = time_[t_ent]
    cl_end = time_[t_ex]
    cl_total = cl_end - cl_start
    cl_depth = fd[ex]

    # Open frames: the unpaired trailing ENTRY of a (cpu, depth) group,
    # already in (cpu, depth) order.
    last_g = np.zeros(n, dtype=bool)
    last_g[g_ends - 1] = True
    tr = go[even & last_g]
    t_tr = co[tr]

    # Nested time: a frame's direct children are the closed frames one
    # level deeper whose ENTRY token lies between its own ENTRY and its
    # EXIT (for a frame still open: the end of its CPU segment).  Keying
    # children by depth * (n + 1) + position makes one sorted array serve
    # every (cpu, depth) level.  Children that closed in earlier blocks
    # are in the carried nested-so-far.
    span = n + 1
    child_key = cl_depth * span + ent
    corder = child_key.argsort()
    child_key = child_key[corder]
    prefix = np.empty(len(ent) + 1, dtype=np.int64)
    prefix[0] = 0
    cl_total[corder].cumsum(out=prefix[1:])
    level = (cl_depth + 1) * span
    nested_cl = (
        prefix[child_key.searchsorted(level + ex)]
        - prefix[child_key.searchsorted(level + ent)]
    )
    level = (fd[tr] + 1) * span
    tr_end = seg_ends[seg_heads.searchsorted(tr, side="right") - 1]
    nested_tr = (
        prefix[child_key.searchsorted(level + tr_end)]
        - prefix[child_key.searchsorted(level + tr)]
    )
    if nested0 is not None:
        nested_cl += nested0[t_ent]
        nested_tr += nested0[t_tr]
    walker.carry(
        cpu[tr], event[t_tr], time_[t_tr], pid[t_tr], arg[t_tr], nested_tr
    )

    return ActivityTable.from_columns(
        len(ent),
        meta=meta,
        event=event[t_ent],
        cpu=cpu[ex],
        pid=pid[t_ent],
        start=cl_start,
        end=cl_end,
        total_ns=cl_total,
        self_ns=np.maximum(0, cl_total - nested_cl),
        depth=cl_depth,
        arg=arg[t_ent],
    )


def _runs(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Start and end positions of the runs of equal values in ``keys``."""
    change = (keys[1:] != keys[:-1]).nonzero()[0] + 1
    heads = np.empty(len(change) + 1, dtype=np.int64)
    heads[0] = 0
    heads[1:] = change
    ends = np.empty_like(heads)
    ends[:-1] = change
    ends[-1] = len(keys)
    return heads, ends


#: Column order of the walker's row tuples.
_WALK_COLUMNS = (
    "event", "cpu", "pid", "start", "end", "total_ns", "self_ns", "depth",
    "arg", "truncated",
)


class ActivityStackWalker:
    """Per-CPU stacks of open ENTRY frames — the carried state of
    activity reconstruction, and the sequential matcher behind it.

    :func:`pair_block` seeds its vectorized matcher from these stacks and
    leaves the still-open frames on them; :meth:`feed` is the per-record
    walk for blocks with gaps or malformed streams.  Each matched EXIT,
    lost-event gap, or final truncation appends a row tuple
    ``(event, cpu, pid, start, end, total_ns, self_ns, depth, arg,
    truncated)`` to :attr:`rows`; :meth:`take_table` drains them.
    """

    __slots__ = ("rows", "_stacks", "_strict")

    def __init__(self, strict: bool = False) -> None:
        self.rows: List[tuple] = []
        # Per-CPU stacks of open frames: [event, start, pid, arg, nested].
        self._stacks: Dict[int, List[List[int]]] = {}
        self._strict = strict

    def feed(
        self, t: int, event: int, cpu: int, flag: int, pid: int, arg: int
    ) -> None:
        stack = self._stacks.get(cpu)
        if stack is None:
            stack = self._stacks[cpu] = []
        if flag == _ENTRY:
            stack.append([event, t, pid, arg, 0])
        elif flag == _EXIT:
            if not stack or stack[-1][0] != event:
                if self._strict:
                    raise ValueError(
                        f"unmatched EXIT for {event_name(event)} "
                        f"on cpu{cpu} at t={t}"
                    )
                return
            frame = stack.pop()
            start = frame[1]
            total = t - start
            self_ns = total - frame[4]
            if stack:
                stack[-1][4] += total
            self.rows.append((
                event, cpu, frame[2], start, t, total,
                self_ns if self_ns > 0 else 0, len(stack), frame[3], False,
            ))

    def gap(self, cpu: int, gap_ts: int) -> None:
        """Resynchronize after lost events on ``cpu``.

        Records were lost up to ``gap_ts`` (the first timestamp known good
        after the loss), so any open frame's EXIT may be gone: truncate
        every open frame at the gap boundary — mirroring end-of-trace
        truncation, per the ring-buffer tail-flush invariant — and clear
        the stack so post-gap orphan EXITs are skipped as unmatched
        instead of closing pre-gap frames.
        """
        stack = self._stacks.pop(cpu, None)
        if stack:
            self._truncate(cpu, stack, gap_ts)

    def finish(self, end_ts: int) -> None:
        """Truncate whatever the end of tracing interrupted."""
        for cpu, stack in self._stacks.items():
            self._truncate(cpu, stack, end_ts)
        self._stacks = {}

    def _truncate(self, cpu: int, stack: List[List[int]], t: int) -> None:
        # A frame's self time excludes its closed children (frame[4]) and
        # the truncated frame directly above it, which is truncated too.
        totals = [t - frame[1] if t > frame[1] else 0 for frame in stack]
        totals.append(0)
        for depth, frame in enumerate(stack):
            total = totals[depth]
            self_ns = total - frame[4] - totals[depth + 1]
            self.rows.append((
                frame[0], cpu, frame[2], frame[1], t, total,
                self_ns if self_ns > 0 else 0, depth, frame[3], True,
            ))

    def take_table(self, meta: Optional[TraceMeta] = None) -> ActivityTable:
        """The rows emitted so far as a table (and forget them)."""
        rows, self.rows = self.rows, []
        if not rows:
            return ActivityTable.empty(meta=meta)
        return ActivityTable.from_columns(
            len(rows), meta=meta, **dict(zip(_WALK_COLUMNS, zip(*rows)))
        )

    def seed(self) -> Optional[Tuple[np.ndarray, ...]]:
        """Open frames as ENTRY-token columns ``(cpu, event, start, pid,
        arg, nested)``, each CPU's stack bottom-up; None when none."""
        frames = [
            [cpu] + frame
            for cpu, stack in self._stacks.items()
            for frame in stack
        ]
        if not frames:
            return None
        cpu, event, start, pid, arg, nested = zip(*frames)
        return (
            np.array(cpu, dtype=np.int64),
            np.array(event, dtype=np.int64),
            np.array(start, dtype=np.int64),
            np.array(pid, dtype=np.int64),
            np.array(arg, dtype=np.uint64),
            np.array(nested, dtype=np.int64),
        )

    def carry(
        self,
        cpu: np.ndarray,
        event: np.ndarray,
        start: np.ndarray,
        pid: np.ndarray,
        arg: np.ndarray,
        nested: np.ndarray,
    ) -> None:
        """Replace the stacks with the given open frames, ordered by
        (cpu, depth)."""
        stacks: Dict[int, List[List[int]]] = {}
        for c, e, s, p, a, ns in zip(
            cpu.tolist(), event.tolist(), start.tolist(), pid.tolist(),
            arg.tolist(), nested.tolist(),
        ):
            stacks.setdefault(c, []).append([e, s, p, a, ns])
        self._stacks = stacks

    def open_starts(self) -> Dict[int, int]:
        """Start of each CPU's depth-0 (oldest) open frame."""
        return {
            cpu: stack[0][1] for cpu, stack in self._stacks.items() if stack
        }

    def open_count(self) -> int:
        """Number of open frames over all CPUs."""
        return sum(len(stack) for stack in self._stacks.values())


def _match_frames_walk(
    sel: np.ndarray,
    walker: ActivityStackWalker,
    meta: Optional[TraceMeta],
    gaps: Optional[GapMarkers] = None,
) -> ActivityTable:
    """Per-CPU stack walk over plain Python lists — the general path,
    handling unmatched EXITs (skip, or raise under ``strict``) and
    lost-event gap resynchronization."""
    times = sel["time"].tolist()
    events = sel["event"].tolist()
    cpus = sel["cpu"].tolist()
    flags = sel["flag"].tolist()
    pids = sel["pid"].tolist()
    args = sel["arg"].tolist()

    feed = walker.feed
    pending = list(gaps) if gaps else []
    next_gap = pending[0][2] if pending else -1

    # hot: per-record fallback walk for malformed streams; keep obs out
    i = 0
    for t, event, cpu, flag, pid, arg in zip(
        times, events, cpus, flags, pids, args
    ):
        if i == next_gap:
            while pending and pending[0][2] <= i:
                gcpu, gts, _ = pending.pop(0)
                walker.gap(gcpu, gts)
            next_gap = pending[0][2] if pending else -1
        feed(t, event, cpu, flag, pid, arg)
        i += 1

    # Gaps anchored past the last record (e.g. the flush tail sub-buffer)
    # still truncate at their own boundary, not at end_ts.
    for gcpu, gts, _ in pending:
        walker.gap(gcpu, gts)
    return walker.take_table(meta)


_EV_STATE = int(Ev.TASK_STATE)
_RUNNABLE = int(TaskState.RUNNABLE)
_DAEMON_KINDS = (TaskKind.KDAEMON, TaskKind.UDAEMON, TaskKind.TRACERD)


class PreemptionTracker:
    """The scheduler state machine behind preemption windows, fed in
    blocks of ``TASK_STATE`` / ``SCHED_SWITCH`` records in time order.

    A window opens when a context switch installs a daemon on a CPU while
    the task it displaced (directly or through a chain of daemon switches)
    is an application rank left RUNNABLE, and closes when a non-daemon
    context returns.  Windows caused by the tracer's own daemon are tagged
    with :data:`TRACER_PREEMPT_EVENT` so the classifier can exclude them,
    as the paper does.

    Carried state: each pid's last task state, and per CPU the open daemon
    segment and the displaced rank.  Closed windows (self time = total
    time; nested time is subtracted later) accumulate until
    :meth:`take_table`.
    """

    __slots__ = ("_meta", "_state", "_open", "_displaced", "_rows")

    def __init__(self, meta: TraceMeta) -> None:
        self._meta = meta
        self._state: Dict[int, int] = {}
        # Per-CPU: [daemon_pid, window_start] of the open daemon segment.
        self._open: Dict[int, List[int]] = {}
        self._displaced: Dict[int, Optional[int]] = {}
        self._rows: List[tuple] = []

    def feed(self, sched: np.ndarray) -> None:
        kind_of = self._meta.kind_of
        state = self._state
        times = sched["time"].tolist()
        events = sched["event"].tolist()
        cpus = sched["cpu"].tolist()
        args = sched["arg"].tolist()
        for t, event, cpu, arg in zip(times, events, cpus, args):
            if event == _EV_STATE:
                state[arg >> 8] = arg & 0xFF
                continue
            prev_pid = arg >> 32
            next_pid = arg & 0xFFFFFFFF
            self._close(cpu, t, False)
            if (
                kind_of(prev_pid) == TaskKind.RANK
                and state.get(prev_pid) == _RUNNABLE
            ):
                self._displaced[cpu] = prev_pid
            if kind_of(next_pid) in _DAEMON_KINDS:
                self._open[cpu] = [next_pid, t]
            else:
                # A rank or idle took over: nobody is displaced anymore.
                self._displaced[cpu] = None

    def finish(self, end_ts: int) -> None:
        """Close the segments the end of tracing interrupted."""
        for cpu in list(self._open):
            self._close(cpu, end_ts, True)

    def _close(self, cpu: int, t: int, truncated: bool) -> None:
        seg = self._open.pop(cpu, None)
        if seg is None:
            return
        disp = self._displaced.get(cpu)
        if disp is None:
            return
        daemon_pid, start = seg
        total = t - start
        if total <= 0:
            return
        event = (
            TRACER_PREEMPT_EVENT
            if self._meta.kind_of(daemon_pid) == TaskKind.TRACERD
            else PREEMPT_EVENT
        )
        self._rows.append(
            (event, cpu, daemon_pid, start, t, total, total, disp, truncated)
        )

    def open_windows(self) -> Dict[int, int]:
        """Start of each CPU's open daemon segment that displaced a rank
        (the segment's window is still to come)."""
        return {
            cpu: seg[1]
            for cpu, seg in self._open.items()
            if self._displaced.get(cpu) is not None
        }

    def take_table(self) -> ActivityTable:
        """The windows closed so far as a table (and forget them)."""
        rows, self._rows = self._rows, []
        if not rows:
            return ActivityTable.empty(meta=self._meta)
        columns = (
            "event", "cpu", "pid", "start", "end", "total_ns", "self_ns",
            "displaced_pid", "truncated",
        )
        return ActivityTable.from_columns(
            len(rows), meta=self._meta, **dict(zip(columns, zip(*rows)))
        )


def _subtract_nested_table(
    preemptions: ActivityTable, kacts: ActivityTable
) -> None:
    """Remove depth-0 kernel-activity time nested inside preemption windows.

    Depth-0 kernel activities on one CPU never overlap each other (stack
    discipline), so each window's nested time is a prefix-sum difference
    over the (cpu, start)-sorted intervals plus a clip of the last one.
    Matches the object path exactly: intervals *starting* inside the
    window count, an interval straddling the window start does not.
    """
    pdata = preemptions.data
    kdata = kacts.data
    k0 = kdata[kdata["depth"] == 0]
    if not len(k0) or not len(pdata):
        return
    k_key, w0_key, w1_key = cpu_time_keys(
        (k0["cpu"], k0["start"]),
        (pdata["cpu"], pdata["start"]),
        (pdata["cpu"], pdata["end"]),
    )
    korder = k_key.argsort(kind="stable")
    k_key = k_key[korder]
    ks = k0["start"][korder]
    ke = k0["end"][korder]
    # Durations clamp at 0: a truncated frame can carry end < start
    # when an explicit end_ts precedes its start.
    prefix = np.zeros(len(ks) + 1, dtype=np.int64)
    np.maximum(0, ke - ks).cumsum(out=prefix[1:])
    lo = k_key.searchsorted(w0_key)
    hi = k_key.searchsorted(w1_key)
    nested = prefix[hi] - prefix[lo]
    # Only the last interval in range can extend past the window end.
    has = hi > lo
    w1 = pdata["end"]
    nested[has] -= np.maximum(0, ke[hi[has] - 1] - w1[has])
    pdata["self_ns"] = np.maximum(0, pdata["total_ns"] - nested)
