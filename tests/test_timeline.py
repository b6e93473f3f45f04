"""Unit tests for task-state timelines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timeline import TaskTimeline
from repro.simkernel.task import TaskState
from repro.tracing.events import Ev
from recbuild import DAEMON, RANK, RANK2, TRACERD, RecordBuilder, meta
from reference import ReferenceTimeline


def timeline_of(records, end_ts=10_000):
    return TaskTimeline(records, meta=meta(), end_ts=end_ts)


class TestReconstruction:
    def test_simple_lifecycle(self):
        records = (
            RecordBuilder()
            .state(0, RANK, TaskState.RUNNING)
            .state(4000, RANK, TaskState.BLOCKED)
            .state(7000, RANK, TaskState.RUNNABLE)
            .state(7500, RANK, TaskState.RUNNING)
            .build()
        )
        tl = timeline_of(records)
        intervals = tl.intervals(RANK)
        assert [iv.state for iv in intervals] == [
            TaskState.RUNNING,
            TaskState.BLOCKED,
            TaskState.RUNNABLE,
            TaskState.RUNNING,
        ]
        assert intervals[-1].end == 10_000  # extends to trace end
        assert tl.time_in_state(RANK, TaskState.BLOCKED) == 3000
        assert tl.time_in_state(RANK, TaskState.RUNNABLE) == 500

    def test_state_at(self):
        records = (
            RecordBuilder()
            .state(100, RANK, TaskState.RUNNING)
            .state(500, RANK, TaskState.BLOCKED)
            .build()
        )
        tl = timeline_of(records)
        assert tl.state_at(RANK, 50) is None
        assert tl.state_at(RANK, 300) == TaskState.RUNNING
        assert tl.state_at(RANK, 600) == TaskState.BLOCKED
        assert tl.state_at(RANK, 99_999) == TaskState.BLOCKED  # persists
        assert tl.state_at(12345, 0) is None

    def test_multiple_tasks_independent(self):
        records = (
            RecordBuilder()
            .state(0, RANK, TaskState.RUNNING)
            .state(0, RANK2, TaskState.BLOCKED)
            .state(5000, RANK2, TaskState.RUNNING)
            .build()
        )
        tl = timeline_of(records)
        assert tl.pids() == [RANK, RANK2]
        assert tl.time_in_state(RANK2, TaskState.BLOCKED) == 5000

    def test_zero_length_interval_dropped(self):
        records = (
            RecordBuilder()
            .state(100, RANK, TaskState.RUNNABLE)
            .state(100, RANK, TaskState.RUNNING)
            .build()
        )
        tl = timeline_of(records)
        assert [iv.state for iv in tl.intervals(RANK)] == [TaskState.RUNNING]


class TestSummaries:
    def test_occupancy_sums_to_one(self):
        records = (
            RecordBuilder()
            .state(0, RANK, TaskState.RUNNING)
            .state(6000, RANK, TaskState.BLOCKED)
            .build()
        )
        tl = timeline_of(records)
        occ = tl.occupancy(RANK)
        assert sum(occ.values()) == pytest.approx(1.0)
        assert occ[TaskState.RUNNING] == pytest.approx(0.6)

    def test_wait_times(self):
        records = (
            RecordBuilder()
            .state(0, RANK, TaskState.RUNNING)
            .state(1000, RANK, TaskState.RUNNABLE)
            .state(1400, RANK, TaskState.RUNNING)
            .state(5000, RANK, TaskState.RUNNABLE)
            .state(5100, RANK, TaskState.RUNNING)
            .build()
        )
        waits = timeline_of(records).wait_times(RANK)
        assert list(waits) == [400, 100]

    def test_summary_only_application_tasks(self):
        records = (
            RecordBuilder()
            .state(0, RANK, TaskState.RUNNING)
            .state(0, DAEMON, TaskState.BLOCKED)
            .build()
        )
        summary = timeline_of(records).summary()
        assert RANK in summary
        assert DAEMON not in summary

    def test_empty_task(self):
        tl = timeline_of(RecordBuilder().build())
        assert tl.occupancy(RANK) == {}
        assert tl.wait_times(RANK).size == 0


class TestOnRealTrace:
    def test_lammps_ranks_wait_during_preemptions(self, lammps_run):
        node, trace, m = lammps_run
        tl = TaskTimeline(trace.records(), meta=m, end_ts=trace.end_ts)
        summary = tl.summary()
        assert len(summary) == 8
        # LAMMPS is preemption-dominated: its ranks visibly wait runnable.
        total_wait = sum(row["runnable"] for row in summary.values())
        assert total_wait > 0.005 * len(summary)
        # And everyone spends most time actually running.
        for row in summary.values():
            assert row["running"] > 0.5

    def test_consistency_with_blocked_accounting(self, ftq_run):
        node, trace, m = ftq_run
        tl = TaskTimeline(trace.records(), meta=m, end_ts=trace.end_ts)
        rank_pid = min(pid for pid in m.tasks if m.is_application(pid))
        blocked = tl.blocked_times(rank_pid)
        # FTQ rarely blocks (only its sparse NFS ops).
        assert tl.occupancy(rank_pid).get(TaskState.BLOCKED, 0.0) < 0.05
        assert (blocked >= 0).all()


# ----------------------------------------------------------------------
# Differential: columnar timeline vs the frozen object-path original.
# ----------------------------------------------------------------------

TASKS = [RANK, RANK2, DAEMON, TRACERD, 4242]


@st.composite
def state_streams(draw):
    """Multi-task ``task_state`` streams with equal timestamps (zero-length
    intervals), unrelated records mixed in, optionally out of time order,
    and ``end_ts`` absent, inside the stream or past its end."""
    builder = RecordBuilder()
    # Few tasks and states give long same-state runs, where a pairwise
    # float sum would differ from the sequential one.
    tasks = TASKS[:draw(st.integers(min_value=1, max_value=len(TASKS)))]
    states = list(TaskState)[:draw(st.integers(min_value=1, max_value=4))]
    t = 0
    for _ in range(draw(st.integers(min_value=0, max_value=120))):
        t += draw(st.sampled_from([0, 0, 1, 7, 250, 3001, 77_777]))
        pid = draw(st.sampled_from(tasks))
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            builder.raw(t, Ev.MARKER, pid=pid)
        else:
            builder.state(t, pid, draw(st.sampled_from(states)),
                          cpu=draw(st.integers(min_value=0, max_value=1)))
    records = builder.build()
    if draw(st.booleans()):
        perm = draw(st.permutations(range(len(records))))
        records = records[np.asarray(perm, dtype=np.intp)]
    end_ts = draw(st.one_of(
        st.none(),
        st.integers(min_value=0, max_value=max(0, t - 1)),
        st.integers(min_value=t, max_value=t + 5000),
    ))
    return records, end_ts


@given(state_streams(), st.lists(st.integers(min_value=-10,
                                             max_value=10**7), max_size=12))
@settings(max_examples=100, deadline=None)
def test_timeline_matches_reference(data, instants):
    records, end_ts = data
    got = TaskTimeline(records, meta=meta(), end_ts=end_ts)
    want = ReferenceTimeline(records, meta=meta(), end_ts=end_ts)
    assert got.pids() == want.pids()
    probes = set(instants) | set(records["time"].tolist())
    probes |= {got.end_ts, got.end_ts - 1, got.end_ts + 1}
    for pid in TASKS:
        assert got.intervals(pid) == want.intervals(pid)
        for state in TaskState:
            assert got.intervals(pid, state) == want.intervals(pid, state)
            spent = got.time_in_state(pid, state)
            assert type(spent) is int
            assert spent == want.time_in_state(pid, state)
        for probe in sorted(probes):
            assert got.state_at(pid, probe) == want.state_at(pid, probe)
        # Bit-equal floats, same keys in the same order.
        assert list(got.occupancy(pid).items()) == list(
            want.occupancy(pid).items()
        )
        for mine, theirs in ((got.wait_times(pid), want.wait_times(pid)),
                             (got.blocked_times(pid),
                              want.blocked_times(pid))):
            assert mine.dtype == theirs.dtype == np.int64
            assert mine.tolist() == theirs.tolist()
    assert got.summary() == want.summary()


# ----------------------------------------------------------------------
# The analysis feeds the timeline its TASK_STATE records unsorted.
# ----------------------------------------------------------------------

def _timeline_columns(records, analysis):
    tl = TaskTimeline(records, meta=analysis.meta, end_ts=analysis.end_ts)
    return (tl._start.tobytes(), tl._end.tobytes(), tl._state.tobytes(),
            tl._rows)


def _assert_block_order_timeline(analysis):
    """The timeline of ``task_state_records`` (read first, so in engine
    block order) equals the timeline of every time-sorted record."""
    got = _timeline_columns(analysis.task_state_records(), analysis)
    assert got == _timeline_columns(analysis.records, analysis)


_GOLDEN_RUNS = [(app, seed) for app in
                ("AMG", "IRS", "LAMMPS", "SPHOT", "UMT", "FTQ")
                for seed in (1, 2)]


@pytest.mark.parametrize("app,seed", _GOLDEN_RUNS,
                         ids=[f"{a}-{s}" for a, s in _GOLDEN_RUNS])
def test_task_states_in_block_order_on_golden_runs(app, seed):
    """On the ``test_golden.py`` runs (100 ms, 8 CPUs)."""
    from repro.core import NoiseAnalysis
    from repro.exec.spec import RunSpec
    from repro.util.units import MSEC

    trace, m = RunSpec.make(app, 100 * MSEC, seed, 8).execute()
    _assert_block_order_timeline(NoiseAnalysis(trace, meta=m))


def test_task_states_in_block_order_out_of_time_order():
    """Records the tracer never writes: a raw array in random order, and
    one packet's records shuffled (behind lost events).  The hand-built
    array, fed backwards, puts one task in two states at one time on two
    CPUs (the lower CPU's comes first) and on one (feed order), so the
    tie order decides its intervals."""
    import dataclasses

    from repro.core import NoiseAnalysis
    from repro.tracing.ctf import Trace
    from repro.exec.spec import RunSpec
    from repro.util.units import MSEC

    ties = (
        RecordBuilder()
        .state(0, RANK, TaskState.RUNNING)
        .state(10, RANK, TaskState.RUNNABLE, cpu=1)
        .state(10, RANK, TaskState.RUNNING, cpu=0)
        .state(20, RANK, TaskState.BLOCKED, cpu=1)
        .state(20, RANK, TaskState.RUNNABLE, cpu=1)
        .state(30, RANK, TaskState.RUNNING)
        .build()
    )[::-1]
    analysis = NoiseAnalysis(ties, meta=meta())
    assert [(i.start, i.end, i.state) for i in TaskTimeline(
        analysis.task_state_records(), meta=meta(), end_ts=40,
    ).intervals(RANK)] == [
        (0, 10, TaskState.RUNNING), (10, 20, TaskState.RUNNABLE),
        (20, 30, TaskState.BLOCKED), (30, 40, TaskState.RUNNING),
    ]
    _assert_block_order_timeline(analysis)

    trace, m = RunSpec.make("AMG", 100 * MSEC, 1, 8).execute()
    records = trace.records()
    shuffled = records[np.random.default_rng(7).permutation(len(records))]
    _assert_block_order_timeline(NoiseAnalysis(shuffled, meta=m))

    packets = list(trace.packets)
    victim = packets[3]
    rows = victim.records()
    packets[3] = dataclasses.replace(
        victim, lost_before=2,
        payload=rows[np.random.default_rng(3).permutation(len(rows))]
        .tobytes(),
    )
    _assert_block_order_timeline(NoiseAnalysis(
        Trace(trace.ncpus, trace.start_ts, trace.end_ts, packets), meta=m
    ))
