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
them, for a whole trace in batch and once per watermark advance in
streaming.
Nested time subtraction for windows is a ``searchsorted`` + prefix-sum
over the sorted depth-0 intervals.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.model import (
    ActivityTable,
    PREEMPT_EVENT,
    TRACER_PREEMPT_EVENT,
    PidKinds,
    TraceMeta,
    concat_rows,
    cpu_time_keys,
    take_rows,
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
#: Deepest frame the vectorized matcher pairs.  It makes one pass over the
#: block per frame depth; kernel activities nest a few frames deep, so a
#: deeper block is damaged or hostile input and takes the O(n) walk.
MAX_MATCH_DEPTH = 32


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
    block with gap markers (positions into ``sel``), one shorter than the
    walker's open frames (seeding the matcher with them would cost more
    than walking it), or one the vectorized matcher rejects takes the
    sequential walk over the same stacks.
    """
    if not gaps and walker.open_count() <= len(sel):
        table = _match_frames_vectorized(sel, walker, meta)
        if table is not None:
            return table
        # A block the matcher rejects (malformed, nested deeper than
        # MAX_MATCH_DEPTH, or not CPU-major): fall back to the sequential
        # stack walk.  The counter makes the rate of this slow path a
        # first-class signal.
        if obs.enabled():
            obs.counter("nesting.stack_walk_fallback").inc()
    return _match_frames_walk(sel, walker, meta, gaps)


def _match_frames_vectorized(
    sel: np.ndarray,
    walker: "ActivityStackWalker",
    meta: Optional[TraceMeta],
) -> Optional[ActivityTable]:
    """Bracket matching, one frame depth at a time, for well-formed
    blocks.

    The block must be CPU-major, as the engine cuts it; the walker's open
    frames lead their CPU as ENTRY tokens, merged in by ``searchsorted``.
    Within a CPU whose running depth never drops below zero, the tokens
    at one frame depth alternate ENTRY, EXIT, ENTRY, ..., starting with
    an ENTRY: a frame at depth d must close before the next one at depth
    d opens.  So an EXIT at depth d closes the depth-d token just before
    it, and one ``nonzero`` per depth pairs every token.  A frame's nested
    time sums its direct children: each closed frame one depth deeper
    finds its parent by ``searchsorted`` into that depth's positions,
    which are already sorted.

    Returns ``None`` (walker untouched) when the block is not CPU-major,
    nests deeper than :data:`MAX_MATCH_DEPTH`, or is not well formed (an
    EXIT with no open frame, or one whose event does not match the frame
    it would close); those blocks take :func:`_match_frames_walk`, which
    takes records in any order and implements the skip/strict semantics.
    """
    flag = sel["flag"]
    is_entry = flag == _ENTRY
    keep = is_entry | (flag == _EXIT)
    if not keep.all():
        sel = take_rows(sel, keep)
        is_entry = is_entry[keep]
    if not len(sel):
        return ActivityTable.empty(meta=meta)

    # Token columns; per-token arrays below are small, so numpy methods
    # (not np.* wrappers) keep the per-block constant down.
    cpu = sel["cpu"]
    if not (cpu[1:] >= cpu[:-1]).all():
        return None  # not CPU-major
    time_ = sel["time"].astype(np.int64)
    event = sel["event"]
    pid = sel["pid"]
    arg = sel["arg"]
    nested0 = None
    n_seed = 0
    seed = walker.seed()
    if seed is not None:
        # The few open frames, by CPU (each CPU's stack stays bottom-up).
        by_cpu = seed[0].argsort(kind="stable")
        s_cpu, s_event, s_start, s_pid, s_arg, s_nested = (
            column[by_cpu] for column in seed
        )
        n_seed = len(s_cpu)
        cpu = np.concatenate((s_cpu, cpu))
        time_ = np.concatenate((s_start, time_))
        event = np.concatenate((s_event, event))
        pid = np.concatenate((s_pid, pid))
        arg = np.concatenate((s_arg, arg))
        is_entry = np.concatenate((np.ones(n_seed, dtype=bool), is_entry))
        nested0 = np.concatenate((s_nested, np.zeros(len(sel), np.int64)))

    # Positions below are CPU-major; ``co`` maps them to token indices
    # (None: they are the token indices).
    n = len(cpu)
    co = None
    if n_seed:
        seeds_at = cpu[n_seed:].searchsorted(cpu[:n_seed]) + np.arange(n_seed)
        co = np.empty(n, dtype=np.int64)
        in_block = np.ones(n, dtype=bool)
        in_block[seeds_at] = False
        co[seeds_at] = np.arange(n_seed)
        co[in_block] = np.arange(n_seed, n)
        cpu = cpu[co]
        is_entry = is_entry[co]
        time_ = time_[co]

    # Running stack depth within each CPU segment.
    seg_heads, seg_ends = _runs(cpu)
    # int32: a cumulative sum of int64 costs about three times as much.
    depth_after = (is_entry.view(np.int8) * 2 - 1).cumsum(dtype=np.int32)
    base = depth_after[seg_heads - 1]
    base[0] = 0
    depth_after -= base.repeat(seg_ends - seg_heads)
    if depth_after.min() < 0:
        return None  # an EXIT with no open frame
    fd = depth_after - is_entry  # frame depth: c-1 for ENTRY, c for EXIT
    max_depth = int(fd.max())
    if max_depth > MAX_MATCH_DEPTH:
        return None  # one pass per depth would cost O(n * depth)

    # One depth at a time, deepest first, so each depth's closed frames
    # are the children of the next.  A frame's direct children are the
    # closed frames one deeper whose ENTRY follows its own with no token
    # at its depth between them; so each child's parent is the last
    # token at the parent depth before it.  Children that closed in
    # earlier blocks are in the carried nested-so-far.
    partner = np.empty(n, dtype=np.int64)  # EXIT position -> ENTRY's
    nested = np.zeros(n, dtype=np.int64)  # ENTRY position -> nested time
    open_at: List[np.ndarray] = []
    child_at = child_total = np.zeros(0, dtype=np.int64)
    for depth in range(max_depth, -1, -1):
        at = (fd == depth).nonzero()[0]
        entry = is_entry[at]
        k = (~entry[1:]).nonzero()[0]  # each EXIT closes the token before
        ent = at[k]
        ex = at[k + 1]
        partner[ex] = ent
        open_at.append(at[(entry & np.append(entry[1:], True)).nonzero()[0]])
        if len(child_at):
            _sum_into_parents(nested, at, child_at, child_total)
        if depth:
            child_at = ent
            child_total = time_[ex] - time_[ent]

    # Closed frames in EXIT-record order, like the walk's appends, so the
    # final stable sort keeps identical tie order.  Every EXIT is a block
    # record (carried frames are ENTRY tokens), and CPU-major positions
    # keep the block's records in order.
    ex = (~is_entry).nonzero()[0]
    ent = partner[ex]
    t_ent = ent if co is None else co[ent]
    t_ex = ex if co is None else co[ex]
    if not (event[t_ent] == event[t_ex]).all():
        return None  # EXIT closing a different event's frame
    cl_start = time_[ent]
    cl_end = time_[ex]
    cl_total = cl_end - cl_start
    nested_cl = nested[ent]

    # Open frames by depth, each depth's by CPU: ``carry`` regroups them
    # into per-CPU stacks, bottom-up, CPUs ascending (every CPU with an
    # open frame has one at depth 0).
    tr = np.concatenate(open_at[::-1])
    nested_tr = nested[tr]
    t_tr = tr if co is None else co[tr]
    if nested0 is not None:
        nested_cl += nested0[t_ent]
        nested_tr += nested0[t_tr]
    walker.carry(
        cpu[tr], event[t_tr], time_[tr], pid[t_tr], arg[t_tr], nested_tr
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
        depth=fd[ex],
        arg=arg[t_ent],
    )


def _sum_into_parents(
    nested: np.ndarray,
    at: np.ndarray,
    child_at: np.ndarray,
    child_total: np.ndarray,
) -> None:
    """Set ``nested`` at each parent's position to its children's total.
    A child's parent is the last of the sorted positions ``at`` before
    the child's; ``child_at`` is sorted too."""
    parent = at[at.searchsorted(child_at) - 1]
    first = np.empty(len(parent), dtype=bool)
    first[0] = True
    np.not_equal(parent[1:], parent[:-1], out=first[1:])
    heads = first.nonzero()[0]
    nested[parent[heads]] = np.add.reduceat(child_total, heads)


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
        """Replace the stacks with the given open frames; each CPU's
        come in depth order."""
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
_RANK = int(TaskKind.RANK)
#: TaskKind code -> the window event of a segment a task of that kind
#: opens when switched in; 0 for the kinds that open none.
_WINDOW_EVENT = np.zeros(max(TaskKind) + 1, dtype=np.int64)
_WINDOW_EVENT[[TaskKind.KDAEMON, TaskKind.UDAEMON]] = PREEMPT_EVENT
_WINDOW_EVENT[TaskKind.TRACERD] = TRACER_PREEMPT_EVENT
#: Displaced-rank sentinels: nobody displaced; unchanged by this switch.
_NOBODY = -1
_INHERIT = -2
#: TaskKind code of a switch's next task -> the CPU's displaced rank
#: after the switch, before the prev task's state is looked at.
_FIRST_DISP = np.where(_WINDOW_EVENT != 0, _INHERIT, _NOBODY)
#: Columns of the tracker's switch tokens.
_CPU, _PID, _TIME, _DISP, _EVENT = range(5)


class PreemptionTracker:
    """The scheduler state machine behind preemption windows, fed in
    blocks of ``TASK_STATE`` / ``SCHED_SWITCH`` records in time order.

    A window opens when a context switch installs a daemon on a CPU while
    the task it displaced (directly or through a chain of daemon switches)
    is an application rank left RUNNABLE, and closes at the CPU's next
    switch.  Windows caused by the tracer's own daemon are tagged with
    :data:`TRACER_PREEMPT_EVENT` so the classifier can exclude them, as
    the paper does.

    :meth:`feed` works on columns.  Each switch is a token ``(cpu, next
    pid, time, displaced rank, window event)``.  A switch that installs a
    daemon reads its prev task's state from the last ``TASK_STATE``
    before it; a stable sort by CPU puts every token after the previous
    one on its CPU, the displaced rank is forward-filled along each CPU,
    and each daemon segment is closed by its CPU's next token.

    Carried state between blocks: each pid's last task state, and the
    tokens of the open daemon segments, one per CPU in the order they
    opened.  Those tokens lead their CPUs in the next block, the way the
    walker's open frames seed :func:`pair_block`.  Closed windows (self
    time = total time; nested time is subtracted later) accumulate until
    :meth:`take_table`.
    """

    __slots__ = ("_meta", "_pids", "_state", "_open", "_parts")

    def __init__(self, meta: TraceMeta) -> None:
        self._meta = meta
        self._pids = PidKinds(meta)
        # Last traced task state of each pid.
        self._state: Dict[int, int] = {}
        # Tokens of the open daemon segments, in the order they opened.
        self._open = np.zeros((0, 5), dtype=np.int64)
        self._parts: List[np.ndarray] = []

    def feed(self, sched: np.ndarray) -> None:
        """Fold one block of scheduler records (time order; every record
        that is not a ``TASK_STATE`` is a switch) into the state."""
        is_state = sched["event"] == _EV_STATE
        sw = (~is_state).nonzero()[0]
        st = is_state.nonzero()[0]
        m = len(sw)
        arg = sched["arg"]
        sw_arg = arg[sw]
        st_arg = arg[st]
        # Every pid of the block: prev and next of each switch, then the
        # pid of each TASK_STATE.
        pids = np.concatenate(
            (sw_arg >> 32, sw_arg & 0xFFFFFFFF, st_arg >> 8)
        ).astype(np.int64)
        slots = self._pids.slots(pids)
        kind = self._pids.kind[slots[:2 * m]]
        event = _WINDOW_EVENT[kind[m:]]

        # Displaced rank after each switch: a switch to a daemon keeps the
        # CPU's (_INHERIT), or takes its prev when that is a RUNNABLE
        # rank; any other switch clears it.
        disp = _FIRST_DISP[kind[m:]]
        q = ((kind[:m] == _RANK) & (disp == _INHERIT)).nonzero()[0]
        if len(q):
            q = q[self._states_before(
                pids[q], slots[q], sw[q], slots[2 * m:], st, st_arg,
                len(sched),
            ) == _RUNNABLE]
            disp[q] = pids[q]
        if len(st):
            self._state.update(
                zip(pids[2 * m:].tolist(), (st_arg & 0xFF).tolist())
            )
        if not m or not (len(self._open) or event.any()):
            return  # no daemon segment open or opening

        tok = np.empty((m, 5), dtype=np.int64)
        tok[:, _CPU] = sched["cpu"][sw]
        tok[:, _PID] = pids[m:2 * m]
        tok[:, _TIME] = sched["time"][sw]
        tok[:, _DISP] = disp
        tok[:, _EVENT] = event
        if len(self._open):
            tok = np.concatenate((self._open, tok))
        # Per CPU, in token order.
        co = tok[:, _CPU].argsort(kind="stable")
        tok = tok[co]
        cpu, _, t, disp, event = tok.T
        head = np.empty(len(co), dtype=bool)
        head[0] = True
        np.not_equal(cpu[1:], cpu[:-1], out=head[1:])
        filled = ((disp != _INHERIT) | head) * np.arange(len(co))
        disp[:] = disp[np.maximum.accumulate(filled)]
        disp[disp == _INHERIT] = _NOBODY

        # Each token closes the segment its CPU's previous token opened.
        at = (
            (event[:-1] != 0) & (disp[:-1] != _NOBODY) & ~head[1:]
            & (t[1:] > t[:-1])
        ).nonzero()[0]
        if len(at):
            at = at[co[at + 1].argsort()]  # switch order, as emitted
            self._emit(tok[at], tok[at + 1, _TIME], False)

        # Carry each CPU's last token if it opened a segment, in token
        # order: the order in which the segments opened.
        last = np.append(head[1:], True) & (event != 0)
        last = last.nonzero()[0]
        self._open = tok[last[co[last].argsort()]]

    def _states_before(
        self,
        pids: np.ndarray,
        slots: np.ndarray,
        at: np.ndarray,
        st_slots: np.ndarray,
        st: np.ndarray,
        st_arg: np.ndarray,
        n: int,
    ) -> np.ndarray:
        """Task state of each pid (with its slot) just before block
        position ``at``: its last ``TASK_STATE`` record in the block
        before it, else the carried one (-1 when none).  ``st_slots``,
        ``st`` and ``st_arg`` are the slots, positions and args of the
        block's ``TASK_STATE`` records; ``n`` bounds positions."""
        state = np.fromiter(
            map(self._state.get, pids.tolist(), repeat(-1)),
            dtype=np.int64, count=len(pids),
        )
        if len(st):
            key = st_slots * n + st
            order = key.argsort()
            key = key[order]
            j = key.searchsorted(slots * n + at) - 1
            found = (j >= 0) & (key[j] // n == slots)
            state[found] = st_arg[order[j[found]]] & 0xFF
        return state

    def _emit(self, seg: np.ndarray, end: np.ndarray, truncated: bool) -> None:
        """Windows of the segment tokens ``seg`` ending at ``end``."""
        start = seg[:, _TIME]
        total = end - start
        self._parts.append(ActivityTable.from_columns(
            len(seg), event=seg[:, _EVENT], cpu=seg[:, _CPU],
            pid=seg[:, _PID], start=start, end=end, total_ns=total,
            self_ns=total, displaced_pid=seg[:, _DISP], truncated=truncated,
        ).data)

    def finish(self, end_ts: int) -> None:
        """Close the segments the end of tracing interrupted."""
        seg = self._open
        seg = seg[(seg[:, _DISP] != _NOBODY) & (seg[:, _TIME] < end_ts)]
        self._open = self._open[:0]
        if len(seg):
            self._emit(seg, np.full(len(seg), end_ts), True)

    def open_windows(self) -> Dict[int, int]:
        """Start of each CPU's open daemon segment that displaced a rank
        (the segment's window is still to come)."""
        return {
            cpu: start
            for cpu, _, start, disp, _ in self._open.tolist()
            if disp != _NOBODY
        }

    def take_table(self) -> ActivityTable:
        """The windows closed so far as a table (and forget them)."""
        parts, self._parts = self._parts, []
        if not parts:
            return ActivityTable.empty(meta=self._meta)
        return ActivityTable(concat_rows(parts), meta=self._meta)


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
    k0 = take_rows(kdata, kdata["depth"] == 0)
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
