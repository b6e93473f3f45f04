"""Unit tests for nested-activity reconstruction on hand-built records."""

import copy
from itertools import cycle, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import is_window
from repro.core.model import (
    PREEMPT_EVENT, TRACER_PREEMPT_EVENT, TaskInfo, TraceMeta,
)
from repro.core import nesting
from repro.core.nesting import (
    MAX_MATCH_DEPTH,
    ActivityStackWalker,
    PreemptionTracker,
    _match_frames_vectorized,
    _match_frames_walk,
    pair_block,
)
from repro.simkernel.task import TaskKind, TaskState
from repro.tracing.events import Ev, Flag, RECORD_DTYPE
from recbuild import (
    DAEMON, IDLE, RANK, RANK2, TRACERD, RecordBuilder, engine_table, meta,
)
from reference import build_preemptions_ref


def activities(records, end_ts, strict=False):
    """Kernel activity rows of one engine pass, in table order."""
    table = engine_table(records, end_ts, strict=strict)
    return table.rows(~is_window(table.data["event"]))


def windows(records, end_ts):
    """Preemption window rows of one engine pass, in table order."""
    table = engine_table(records, end_ts)
    return table.rows(is_window(table.data["event"]))


class TestPairedReconstruction:
    def test_simple_activity(self):
        records = RecordBuilder().activity(100, 600, Ev.IRQ_TIMER).build()
        acts = activities(records, end_ts=1000)
        assert len(acts) == 1
        act = acts[0]
        assert act.name == "timer_interrupt"
        assert act.total_ns == 500 and act.self_ns == 500
        assert act.depth == 0 and not act.truncated

    def test_nested_self_time_attribution(self):
        # Page fault 100..1100; timer irq nests 300..500.
        records = (
            RecordBuilder()
            .entry(100, Ev.EXC_PAGE_FAULT)
            .activity(300, 500, Ev.IRQ_TIMER)
            .exit(1100, Ev.EXC_PAGE_FAULT)
            .build()
        )
        acts = activities(records, end_ts=2000)
        by_name = {a.name: a for a in acts}
        fault = by_name["page_fault"]
        irq = by_name["timer_interrupt"]
        assert fault.total_ns == 1000
        assert fault.self_ns == 800  # 200 ns went to the nested irq
        assert irq.self_ns == 200 and irq.depth == 1
        assert fault.depth == 0

    def test_double_nesting(self):
        records = (
            RecordBuilder()
            .entry(0, Ev.SYSCALL)
            .entry(100, Ev.EXC_PAGE_FAULT)
            .activity(150, 250, Ev.IRQ_TIMER)
            .exit(400, Ev.EXC_PAGE_FAULT)
            .exit(1000, Ev.SYSCALL)
            .build()
        )
        acts = activities(records, end_ts=2000)
        by_name = {a.name: a for a in acts}
        assert by_name["syscall"].self_ns == 1000 - 300
        assert by_name["page_fault"].self_ns == 300 - 100
        assert by_name["timer_interrupt"].self_ns == 100
        # Self times sum to the outer wall time: nothing double counted.
        assert sum(a.self_ns for a in acts) == 1000

    def test_truncated_at_trace_end(self):
        records = RecordBuilder().entry(500, Ev.SYSCALL).build()
        acts = activities(records, end_ts=800)
        assert len(acts) == 1
        assert acts[0].truncated
        assert acts[0].total_ns == 300

    def test_unmatched_exit_skipped(self):
        records = RecordBuilder().exit(100, Ev.IRQ_TIMER).build()
        assert activities(records, end_ts=200) == []

    def test_unmatched_exit_strict_raises(self):
        records = RecordBuilder().exit(100, Ev.IRQ_TIMER).build()
        with pytest.raises(ValueError):
            activities(records, end_ts=200, strict=True)

    def test_per_cpu_streams_independent(self):
        records = (
            RecordBuilder()
            .entry(100, Ev.IRQ_TIMER, cpu=0)
            .entry(150, Ev.IRQ_NET, cpu=1)
            .exit(250, Ev.IRQ_NET, cpu=1)
            .exit(300, Ev.IRQ_TIMER, cpu=0)
            .build()
        )
        acts = activities(records, end_ts=1000)
        by_name = {a.name: a for a in acts}
        # Same-time overlap on different CPUs is NOT nesting.
        assert by_name["timer_interrupt"].self_ns == 200
        assert by_name["net_interrupt"].self_ns == 100
        assert by_name["timer_interrupt"].depth == 0
        assert by_name["net_interrupt"].depth == 0

    def test_point_events_ignored(self):
        records = (
            RecordBuilder()
            .state(50, RANK, TaskState.RUNNING)
            .activity(100, 200, Ev.IRQ_TIMER)
            .build()
        )
        acts = activities(records, end_ts=300)
        assert len(acts) == 1


class TestPreemptionWindows:
    def _preempt_records(self, daemon=DAEMON, builder=None):
        # rank preempted at t=1000, daemon runs until 3000, rank restored.
        return (
            (builder or RecordBuilder())
            .state(900, daemon, TaskState.RUNNABLE)
            .state(1000, RANK, TaskState.RUNNABLE)
            .switch(1000, RANK, daemon)
            .state(1000, daemon, TaskState.RUNNING)
            .state(3000, daemon, TaskState.BLOCKED)
            .switch(3000, daemon, RANK)
            .state(3000, RANK, TaskState.RUNNING)
            .build()
        )

    def test_window_detected(self):
        found = windows(self._preempt_records(), end_ts=5000)
        assert len(found) == 1
        w = found[0]
        assert w.event == PREEMPT_EVENT
        assert (w.start, w.end) == (1000, 3000)
        assert w.displaced_pid == RANK
        assert w.name == "preempt:rpciod/0"

    def test_blocked_rank_gives_no_window(self):
        records = (
            RecordBuilder()
            .state(1000, RANK, TaskState.BLOCKED)
            .switch(1000, RANK, DAEMON)
            .switch(3000, DAEMON, IDLE)
            .build()
        )
        assert windows(records, end_ts=5000) == []

    def test_tracer_daemon_window_tagged(self):
        found = windows(self._preempt_records(daemon=TRACERD), end_ts=5000)
        assert len(found) == 1
        assert found[0].event == TRACER_PREEMPT_EVENT

    def test_daemon_chain_keeps_displacement(self):
        records = (
            RecordBuilder()
            .state(1000, RANK, TaskState.RUNNABLE)
            .switch(1000, RANK, DAEMON)
            .switch(2000, DAEMON, TRACERD)
            .switch(2500, TRACERD, RANK)
            .state(2500, RANK, TaskState.RUNNING)
            .build()
        )
        found = windows(records, end_ts=5000)
        assert len(found) == 2
        assert found[0].end == 2000 and found[1].start == 2000
        assert all(w.displaced_pid == RANK for w in found)

    def test_truncated_window(self):
        records = (
            RecordBuilder()
            .state(1000, RANK, TaskState.RUNNABLE)
            .switch(1000, RANK, DAEMON)
            .build()
        )
        found = windows(records, end_ts=4000)
        assert len(found) == 1
        assert found[0].truncated and found[0].end == 4000

    def test_nested_kact_subtracted_from_window_self(self):
        builder = RecordBuilder().activity(1500, 1900, Ev.IRQ_TIMER, pid=DAEMON)
        records = self._preempt_records(builder=builder)
        found = windows(records, end_ts=5000)
        assert found[0].total_ns == 2000
        assert found[0].self_ns == 1600


# ----------------------------------------------------------------------
# PreemptionTracker vs. the frozen per-record reference
# ----------------------------------------------------------------------
#: A user daemon, next to the kernel daemon and the tracer of ``meta()``.
UDAEMON = 300
#: Pids of the generated scheduler streams: two ranks, four daemons (two
#: outside the meta, so their kind comes from the pid convention), the
#: tracer daemon, idle, and a rank outside the meta.
_SCHED_PIDS = (RANK, RANK2, DAEMON, UDAEMON, 500, 600, TRACERD, IDLE, 2000)


_STATES = (TaskState.RUNNABLE, TaskState.RUNNING, TaskState.BLOCKED)


def _sched_meta():
    tasks = dict(meta().tasks)
    tasks[UDAEMON] = TaskInfo(UDAEMON, "eventd", TaskKind.UDAEMON)
    return TraceMeta(tasks)


@st.composite
def sched_streams(draw):
    """A TASK_STATE / SCHED_SWITCH stream on three CPUs: time steps are
    often 0 (equal-timestamp switches on two CPUs, zero-length segments),
    any pid may follow any pid (daemon->daemon chains, the tracer daemon),
    and a task's state may be traced on any CPU."""
    b = RecordBuilder()
    t = 0
    for _ in range(draw(st.integers(0, 60))):
        t += draw(st.sampled_from((0, 0, 0, 1, 7, 40)))
        cpu = draw(st.integers(0, 2))
        if draw(st.booleans()):
            b.state(t, draw(st.sampled_from(_SCHED_PIDS)),
                    draw(st.sampled_from(_STATES)), cpu=cpu)
        else:
            prev = draw(st.sampled_from(_SCHED_PIDS))
            if draw(st.booleans()):
                # Preempted: its RUNNABLE state, possibly on another CPU.
                b.state(t, prev, TaskState.RUNNABLE,
                        cpu=draw(st.integers(0, 2)))
            b.switch(t, prev, draw(st.sampled_from(_SCHED_PIDS)), cpu=cpu)
    records = b.build()
    cuts = sorted(draw(st.lists(st.integers(0, len(records)), max_size=6)))
    end_ts = t + draw(st.sampled_from((0, 5)))
    return records, cuts, end_ts


def _loop_order(records, ref_windows):
    """The reference windows in the order its record loop emits them,
    before its final sort by start: each closed window at its closing
    switch (the first switch on its CPU at its end), then the ones the
    end of the trace truncated, in the order of their opening switches
    (the last on the CPU at the start)."""
    switch = records["event"] == int(Ev.SCHED_SWITCH)

    def switch_index(cpu, t, last):
        hits = np.flatnonzero(
            switch & (records["cpu"] == cpu) & (records["time"] == t)
        )
        return int(hits[-1] if last else hits[0])

    closed = [w for w in ref_windows if not w.truncated]
    cut = [w for w in ref_windows if w.truncated]
    closed.sort(key=lambda w: switch_index(w.cpu, w.end, last=False))
    cut.sort(key=lambda w: switch_index(w.cpu, w.start, last=True))
    return closed + cut


def _tracker_windows(records, cuts, end_ts):
    tracker = PreemptionTracker(_sched_meta())
    rows = []
    for lo, hi in zip([0] + cuts, cuts + [len(records)]):
        tracker.feed(records[lo:hi])
        rows += tracker.take_table().rows()
    tracker.finish(end_ts)
    return rows + tracker.take_table().rows()


def _check_tracker(records, cuts, end_ts):
    ref = build_preemptions_ref(records, _sched_meta(), end_ts)
    assert _tracker_windows(records, cuts, end_ts) == _loop_order(records, ref)


@settings(max_examples=300, deadline=None)
@given(sched_streams())
def test_tracker_matches_reference(stream):
    """Windows of the tracker fed random block splits equal the reference
    windows field by field, in the reference loop's emission order."""
    _check_tracker(*stream)


def test_tracker_features_against_reference():
    """One stream with each feature the generator is meant to reach, and
    with the emission orders that differ from CPU order: two windows
    closing in one block on CPUs in reverse order, two segments open at
    finish that opened in reverse CPU order."""
    records = (
        RecordBuilder()
        .state(0, RANK, TaskState.RUNNABLE, cpu=1)      # state on another CPU
        .switch(10, RANK, DAEMON, cpu=0)
        .state(10, RANK2, TaskState.RUNNABLE, cpu=0)
        .switch(10, RANK2, 500, cpu=1)                  # same time, two CPUs
        .switch(20, DAEMON, TRACERD, cpu=0)             # daemon -> daemon
        .switch(25, 500, IDLE, cpu=1)                   # closes before cpu 0
        .switch(30, TRACERD, 600, cpu=0)
        .switch(30, 600, UDAEMON, cpu=0)                # zero-length segment
        .switch(40, UDAEMON, RANK, cpu=0)
        .state(45, 2000, TaskState.RUNNABLE, cpu=0)
        .switch(50, 2000, DAEMON, cpu=2)                # open at finish
        .state(55, RANK, TaskState.RUNNABLE, cpu=1)
        .switch(55, RANK, UDAEMON, cpu=1)               # opens after cpu 2
        .build()
    )
    ref = build_preemptions_ref(records, _sched_meta(), 80)
    assert {w.event for w in ref} == {PREEMPT_EVENT, TRACER_PREEMPT_EVENT}
    assert [w.cpu for w in ref if w.truncated] == [2, 1]
    for cuts in ([], [3], [2, 5, 9], list(range(1, len(records)))):
        _check_tracker(records, cuts, 80)


def test_tracker_reads_the_last_state_before_the_switch():
    """A rank's state at a switch is its last TASK_STATE before it, not
    an earlier one and not one traced after it at the same time."""
    records = (
        RecordBuilder()
        .state(2, RANK, TaskState.RUNNABLE)
        .state(5, RANK, TaskState.BLOCKED, cpu=1)
        .switch(10, RANK, DAEMON)                       # blocked: no window
        .state(10, RANK, TaskState.RUNNABLE)
        .switch(20, DAEMON, IDLE)
        .state(30, RANK2, TaskState.BLOCKED)
        .state(30, RANK2, TaskState.RUNNABLE)
        .switch(40, RANK2, DAEMON)                      # runnable: a window
        .switch(60, DAEMON, RANK2)
        .build()
    )
    ref = build_preemptions_ref(records, _sched_meta(), 80)
    assert [(w.start, w.end) for w in ref] == [(40, 60)]
    for cuts in ([], [3], [4], [7], list(range(1, len(records)))):
        _check_tracker(records, cuts, 80)


_PAIRED = (Ev.IRQ_TIMER, Ev.IRQ_NET, Ev.SOFTIRQ_TIMER, Ev.EXC_PAGE_FAULT)


@st.composite
def paired_blocks(draw):
    """A carried-in prefix and a block of paired records on up to three
    CPUs.  Each CPU's stream is a random bracket walk (time steps often
    0, frames left open at either cut, a stray POINT flag).  The block is
    CPU-major, as the engine cuts it, or interleaves its CPUs (each in
    order), which the matcher leaves to the walk; and it may be damaged:
    a token turned into an EXIT, or an EXIT's event changed, so that some
    EXIT has no open frame or closes another event's frame."""
    prefix, block = [], {}
    for cpu in range(draw(st.integers(1, 3))):
        rows, stack, t = [], [], 0
        for _ in range(draw(st.integers(0, 24))):
            t += draw(st.sampled_from((0, 0, 1, 5, 40)))
            pid, arg = draw(st.integers(0, 3)), draw(st.integers(0, 9))
            kind = draw(st.sampled_from(("entry", "exit", "exit", "point")))
            if kind == "exit" and stack:
                rows.append((t, stack.pop(), cpu, Flag.EXIT, pid, arg))
            elif kind == "point":
                rows.append((t, _PAIRED[0], cpu, Flag.POINT, pid, arg))
            else:
                stack.append(draw(st.sampled_from(_PAIRED)))
                rows.append((t, stack[-1], cpu, Flag.ENTRY, pid, arg))
        cut = draw(st.integers(0, len(rows)))
        prefix += rows[:cut]
        block[cpu] = rows[cut:]
    if draw(st.booleans()):
        rows = [row for cpu in sorted(block) for row in block[cpu]]
    else:
        queues = [list(block[cpu]) for cpu in block]
        rows = []
        while any(queues):
            live = [q for q in queues if q]
            rows.append(draw(st.sampled_from(live)).pop(0))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        t, event, cpu, _, pid, arg = rows[i]
        if draw(st.booleans()):
            event = draw(st.sampled_from(_PAIRED))
        rows[i] = (t, event, cpu, Flag.EXIT, pid, arg)
    return _as_records(prefix), _as_records(rows)


def _as_records(rows):
    return np.array([tuple(int(v) for v in row) for row in rows],
                    dtype=RECORD_DTYPE)


def _open_frames(walker):
    return {cpu: stack for cpu, stack in walker._stacks.items() if stack}


@settings(max_examples=400, deadline=None)
@given(paired_blocks())
def test_matcher_matches_the_walk(case):
    """Against the walker's open frames after ``prefix``, the per-depth
    matcher closes the same frames as the stack walk, byte for byte and
    in the same order, and carries the same open frames.  Of the
    CPU-major blocks it rejects, leaving the walker as it was, exactly
    those the strict walk rejects; it rejects every block that is not
    CPU-major.  ``pair_block`` walks rejected blocks like the plain
    walk."""
    prefix, block = case
    carried = ActivityStackWalker()
    _match_frames_walk(prefix, carried, None)

    walked = copy.deepcopy(carried)
    want = _match_frames_walk(block, walked, None)
    strict = copy.deepcopy(carried)
    strict._strict = True
    try:
        _match_frames_walk(block, strict, None)
        well_formed = True
    except ValueError:
        well_formed = False

    cpus = block["cpu"][block["flag"] != Flag.POINT]
    cpu_major = bool((cpus[1:] >= cpus[:-1]).all())
    matched = copy.deepcopy(carried)
    table = _match_frames_vectorized(block, matched, None)
    assert (table is None) == (not (well_formed and cpu_major))
    if table is None:
        assert _open_frames(matched) == _open_frames(carried)
    else:
        assert table.data.tobytes() == want.data.tobytes()
        assert _open_frames(matched) == _open_frames(walked)
        assert list(_open_frames(matched)) == sorted(_open_frames(matched))

    paired = copy.deepcopy(carried)
    assert pair_block(block, paired).data.tobytes() == want.data.tobytes()
    assert _open_frames(paired) == _open_frames(walked)


def _nested(depth, cpu=0):
    """``depth`` frames on ``cpu``, each opened inside the last, then
    closed innermost first."""
    events = list(islice(cycle(_PAIRED), depth))
    rows = [
        (t, event, cpu, Flag.ENTRY, 1, t) for t, event in enumerate(events)
    ]
    rows += [
        (depth + t, event, cpu, Flag.EXIT, 1, t)
        for t, event in enumerate(reversed(events))
    ]
    return _as_records(rows)


def test_matcher_depth_bound():
    """The matcher pairs ``MAX_MATCH_DEPTH + 1`` nested frames (deepest
    frame depth ``MAX_MATCH_DEPTH``) and leaves one more to the walk."""
    block = _nested(MAX_MATCH_DEPTH + 1)
    want = _match_frames_walk(block, ActivityStackWalker(), None)
    table = _match_frames_vectorized(block, ActivityStackWalker(), None)
    assert table.data.tobytes() == want.data.tobytes()
    deeper = _nested(MAX_MATCH_DEPTH + 2)
    assert _match_frames_vectorized(deeper, ActivityStackWalker(), None) \
        is None


def test_deep_nesting_takes_the_walk(monkeypatch):
    """Thousands of nested ENTRYs, in one block or carried across a
    stream of small ones, pair like the walk without a pass per depth:
    the matcher declines them, and is never seeded with more open frames
    than the block it is given holds."""
    depth, size = 5000, 100
    records = _nested(depth)
    want = _match_frames_walk(records, ActivityStackWalker(), None)

    walker = ActivityStackWalker()
    assert _match_frames_vectorized(records, walker, None) is None
    assert not walker.open_count()
    whole = pair_block(records, walker)
    assert whole.data.tobytes() == want.data.tobytes()

    seeded = []
    matcher = nesting._match_frames_vectorized

    def spy(sel, walker, meta):
        seeded.append((walker.open_count(), len(sel)))
        return matcher(sel, walker, meta)

    monkeypatch.setattr(nesting, "_match_frames_vectorized", spy)
    walker = ActivityStackWalker()
    parts = [
        pair_block(records[i:i + size], walker).data
        for i in range(0, len(records), size)
    ]
    assert b"".join(p.tobytes() for p in parts) == want.data.tobytes()
    assert not walker.open_count()
    assert all(n_open <= n for n_open, n in seeded)
