"""Differential tests: columnar ActivityTable core vs the reference
object-path implementation (the pre-refactor per-object loops, frozen in
``tests/reference.py``).

Randomized record streams — nested entries/exits, unmatched exits,
truncation, preemption chains — must produce *exactly* equal outputs from
both paths: same activity rows, same per-event statistics, same integer
nanosecond totals, bit-identical timelines.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NoiseAnalysis
from repro.core.model import (
    Activity,
    CATEGORY_ORDER,
    NoiseCategory,
    PREEMPT_EVENT,
    TaskInfo,
)
from repro.simkernel.task import TaskKind, TaskState
from repro.tracing.events import Ev
from recbuild import DAEMON, RANK, RANK2, TRACERD, RecordBuilder, meta
from reference import ReferenceAnalysis

PAIRED = [
    Ev.IRQ_TIMER,
    Ev.IRQ_NET,
    Ev.SOFTIRQ_TIMER,
    Ev.EXC_PAGE_FAULT,
    Ev.SYSCALL,
]


@st.composite
def record_streams(draw):
    """Adversarial multi-CPU streams: nesting, unmatched exits, open frames
    at the end of tracing, and daemon preemption chains."""
    builder = RecordBuilder()
    ncpus = draw(st.integers(min_value=1, max_value=3))
    t_end = draw(st.integers(min_value=500, max_value=50_000))
    for cpu in range(ncpus):
        t = draw(st.integers(min_value=0, max_value=100))
        stack = []
        rank = RANK if cpu % 2 == 0 else RANK2
        for _ in range(draw(st.integers(min_value=0, max_value=30))):
            t += draw(st.integers(min_value=0, max_value=600))
            op = draw(st.integers(min_value=0, max_value=9))
            if op <= 3:
                event = draw(st.sampled_from(PAIRED))
                builder.entry(t, event, cpu=cpu, pid=rank)
                stack.append(event)
            elif op <= 6:
                if stack and draw(st.booleans()):
                    event = stack[-1]          # matching exit
                else:
                    event = draw(st.sampled_from(PAIRED))  # maybe unmatched
                builder.exit(t, event, cpu=cpu, pid=rank)
                if stack and stack[-1] == event:
                    stack.pop()
            elif op <= 8:
                # Preemption chain: rank displaced by a daemon, sometimes
                # with the tracer daemon stacked on top.
                builder.state(t, rank, TaskState.RUNNABLE, cpu=cpu)
                builder.switch(t, rank, DAEMON, cpu=cpu)
                t += draw(st.integers(min_value=1, max_value=300))
                holder = DAEMON
                if draw(st.booleans()):
                    builder.switch(t, DAEMON, TRACERD, cpu=cpu)
                    holder = TRACERD
                    t += draw(st.integers(min_value=1, max_value=300))
                builder.switch(t, holder, rank, cpu=cpu)
                builder.state(t, rank, TaskState.RUNNING, cpu=cpu)
            else:
                builder.raw(t, Ev.MARKER, cpu=cpu, pid=rank)
        # Whatever is left on `stack` stays open: truncated activities.
    records = builder.build()
    span = draw(
        st.one_of(st.none(), st.integers(min_value=100, max_value=60_000))
    )
    return records, span, t_end


def _snapshot(analysis):
    return {
        "activities": analysis.activities,
        "stats": analysis.stats_by_event(noise_only=True),
        "stats_all": analysis.stats_by_event(noise_only=False),
        "breakdown": analysis.breakdown_ns(),
        "total": analysis.total_noise_ns(),
        "fraction": analysis.noise_fraction(),
        "per_cpu": analysis.per_cpu_noise_ns().tolist(),
        "per_cpu_cat": analysis.per_cpu_breakdown(),
        "durations": analysis.durations("page_fault").tolist(),
    }


@given(record_streams())
@settings(max_examples=80, deadline=None)
def test_columnar_matches_reference(data):
    records, span, t_end = data
    col = NoiseAnalysis(records, meta=meta(), span_ns=span)
    ref = ReferenceAnalysis(records, meta=meta(), span_ns=span)
    got, want = _snapshot(col), _snapshot(ref)
    assert got["activities"] == want["activities"]
    assert got["stats"] == want["stats"]
    assert got["stats_all"] == want["stats_all"]
    assert got["breakdown"] == want["breakdown"]
    assert got["total"] == want["total"]
    assert got["fraction"] == want["fraction"]
    assert got["per_cpu"] == want["per_cpu"]
    assert got["per_cpu_cat"] == want["per_cpu_cat"]
    assert got["durations"] == want["durations"]
    # Timelines are float arrays built from the same exact integers: the
    # vectorized np.add.at accumulation must be bit-identical to the loop.
    for quantum in (97, 1000, t_end + 1):
        np.testing.assert_array_equal(
            col.noise_timeline(quantum), ref.noise_timeline(quantum)
        )


# ----------------------------------------------------------------------
# Unit tests for the table itself and the noise_fraction consistency fix.
# ----------------------------------------------------------------------

def _simple_records():
    return (
        RecordBuilder()
        .activity(100, 300, Ev.IRQ_TIMER, cpu=0)
        .activity(400, 450, Ev.EXC_PAGE_FAULT, cpu=1)
        .build()
    )


def test_mask_selects_columns():
    an = NoiseAnalysis(_simple_records(), meta=meta(), span_ns=1000)
    t = an.table
    assert t.mask(event=int(Ev.IRQ_TIMER)).sum() == 1
    assert t.mask(cpu=1).sum() == 1
    assert t.mask(noise_only=True).sum() == len(an.noise())
    assert len(t.rows(t.mask(cpu=0))) == 1
    assert t.rows(t.mask(cpu=0))[0].event == int(Ev.IRQ_TIMER)


def test_names_resolve_preemptions():
    b = RecordBuilder()
    b.state(100, RANK, TaskState.RUNNABLE, cpu=0)
    b.switch(100, RANK, DAEMON, cpu=0)
    b.switch(600, DAEMON, RANK, cpu=0)
    b.state(600, RANK, TaskState.RUNNING, cpu=0)
    an = NoiseAnalysis(b.build(), meta=meta(), span_ns=1000)
    names = an.table.names()
    preempt_rows = an.table.data["event"] == PREEMPT_EVENT
    assert preempt_rows.sum() == 1
    assert names[preempt_rows][0] == "preempt:rpciod/0"


def _twin_daemon_records():
    """Two daemons with different pids but one display name preempt the
    rank in turn (interleaved in time, on two CPUs), next to a tick."""
    b = RecordBuilder()
    for k, (daemon, cpu) in enumerate([(DAEMON, 0), (DAEMON + 7, 1),
                                       (DAEMON, 1), (DAEMON + 7, 0),
                                       (DAEMON + 7, 1)]):
        t = 1000 * (k + 1)
        rank = RANK if cpu == 0 else RANK2
        b.state(t, rank, TaskState.RUNNABLE, cpu=cpu)
        b.switch(t, rank, daemon, cpu=cpu)
        b.switch(t + 100 + 37 * k, daemon, rank, cpu=cpu)
        b.state(t + 100 + 37 * k, rank, TaskState.RUNNING, cpu=cpu)
    b.activity(200, 260, Ev.IRQ_TIMER, cpu=0)
    twins = meta()
    twins.tasks[DAEMON + 7] = TaskInfo(DAEMON + 7, "rpciod/0",
                                       TaskKind.KDAEMON)
    return b.build(), twins


@pytest.mark.parametrize("noise_only", [True, False])
def test_same_named_daemons_share_one_row(noise_only):
    records, twins = _twin_daemon_records()
    col = NoiseAnalysis(records, meta=twins, span_ns=10_000)
    ref = ReferenceAnalysis(records, meta=twins, span_ns=10_000)
    got = col.stats_by_event(noise_only=noise_only)
    assert got == ref.stats_by_event(noise_only=noise_only)
    assert list(got) == sorted(got)
    assert got["preempt:rpciod/0"].count == 5


def test_stats_by_event_returns_a_fresh_dict():
    records, twins = _twin_daemon_records()
    col = NoiseAnalysis(records, meta=twins, span_ns=10_000)
    ref = ReferenceAnalysis(records, meta=twins, span_ns=10_000)
    for noise_only in (True, False):
        want = ref.stats_by_event(noise_only=noise_only)
        first = col.stats_by_event(noise_only=noise_only)
        first.pop("preempt:rpciod/0")
        first["bogus"] = want["timer_interrupt"]
        assert col.stats_by_event(noise_only=noise_only) == want
        col.stats_by_event(noise_only=noise_only).clear()
        assert col.stats_by_event(noise_only=noise_only) == want


def test_out_of_range_cpu_warns_and_stays_consistent():
    records = (
        RecordBuilder()
        .activity(100, 300, Ev.IRQ_TIMER, cpu=0)
        .activity(400, 500, Ev.IRQ_TIMER, cpu=5)
        .build()
    )
    with pytest.warns(RuntimeWarning, match="CPUs >= ncpus"):
        an = NoiseAnalysis(records, meta=meta(), span_ns=1000, ncpus=1)
    # Numerator, denominator and the per-CPU views all agree: the
    # out-of-range activity is excluded everywhere.
    assert an.total_noise_ns() == 200
    assert sum(an.breakdown_ns().values()) == 200
    assert an.per_cpu_noise_ns().tolist() == [200]
    assert sum(sum(c.values()) for c in an.per_cpu_breakdown().values()) == 200
    assert an.noise_fraction() == 200 / (an.span_ns * 1)


def test_category_order_covers_every_category():
    assert set(CATEGORY_ORDER) == set(NoiseCategory)


def test_rows_materialize_python_ints():
    an = NoiseAnalysis(_simple_records(), meta=meta(), span_ns=1000)
    act = an.activities[0]
    assert isinstance(act, Activity)
    assert type(act.start) is int
    assert type(act.self_ns) is int
