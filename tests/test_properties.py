"""Cross-cutting property-based tests on the analysis core.

Random (but well-formed) nested record structures are generated and the
reconstruction invariants are checked: self/total relationships, conservation
of kernel time, and exporter round-trips.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NoiseAnalysis, build_interruptions
from repro.io.paraver import ParaverWriter, parse_prv
from repro.tracing.events import Ev, Flag
from recbuild import RANK, RecordBuilder, engine_table, meta

PAIRED_EVENTS = [
    Ev.IRQ_TIMER,
    Ev.IRQ_NET,
    Ev.SOFTIRQ_TIMER,
    Ev.EXC_PAGE_FAULT,
    Ev.SYSCALL,
]


@st.composite
def nested_structures(draw, open_frames=True):
    """A well-formed single-CPU stream of (possibly nested) activities.

    Generates a random recursion of activities inside a time budget; the
    last frame of a level may stay open when its parent is open too, so
    the end of tracing at ``t_end`` truncates a nest of frames (unless
    ``open_frames`` is false).  Returns (records, depth-0 intervals, t_end).
    """
    builder = RecordBuilder()
    t_end = draw(st.integers(min_value=1000, max_value=100_000))
    segments = []

    def gen(t0, t1, depth, may_open):
        if depth > 3 or t1 - t0 < 20:
            return
        n = draw(st.integers(min_value=0, max_value=3))
        cursor = t0
        for _ in range(n):
            if t1 - cursor < 20:
                break
            start = draw(st.integers(min_value=cursor, max_value=t1 - 10))
            event = draw(st.sampled_from(PAIRED_EVENTS))
            builder.entry(start, event)
            if may_open and draw(st.booleans()):
                # No EXIT: truncated at t_end, and nothing follows it.
                gen(start + 1, t_end - 1, depth + 1, True)
                if depth == 0:
                    segments.append((start, t_end))
                return
            end = draw(st.integers(min_value=start + 10, max_value=t1))
            gen(start + 1, end - 1, depth + 1, False)
            builder.exit(end, event)
            if depth == 0:
                segments.append((start, end))
            cursor = end

    gen(0, t_end, 0, open_frames)
    return builder.build(), segments, t_end


@given(nested_structures())
@settings(max_examples=60, deadline=None)
def test_nesting_invariants(data):
    records, segments, t_end = data
    acts = engine_table(records, t_end).rows()
    # 1. Every activity: 0 <= self <= total.
    for act in acts:
        assert 0 <= act.self_ns <= act.total_ns
        assert act.end >= act.start
    # 2. Conservation: sum of self == union of depth-0 intervals.
    union = sum(e - s for s, e in segments)
    assert sum(a.self_ns for a in acts) == union
    # 3. Count matches the number of ENTRY records.
    n_entries = int((records["flag"] == Flag.ENTRY).sum())
    assert len(acts) == n_entries


# Closed frames only: the count below excludes truncated activities.
@given(nested_structures(open_frames=False))
@settings(max_examples=40, deadline=None)
def test_interruption_grouping_invariants(data):
    records, segments, t_end = data
    an = NoiseAnalysis(records, meta=meta(), span_ns=t_end)
    groups = build_interruptions(an.table, noise_only=False)
    # Groups are disjoint in time per CPU and ordered.
    for a, b in zip(groups, groups[1:]):
        if a.cpu == b.cpu:
            assert b.start >= a.end or b.start > a.start
    # Every non-truncated activity lands in exactly one group.
    total_acts = sum(len(g.activities) for g in groups)
    assert total_acts == len([a for a in an.activities if not a.truncated])


@given(nested_structures())
@settings(max_examples=30, deadline=None)
def test_paraver_roundtrip_property(data):
    records, segments, t_end = data
    an = NoiseAnalysis(records, meta=meta(), span_ns=t_end)
    writer = ParaverWriter(meta(), ncpus=1, end_ts=t_end)
    lines = [writer.header()] + writer.prv_lines(an.table)
    header, parsed = parse_prv("\n".join(lines))
    states = [r for r in parsed if r.kind == 1]
    assert len(states) == len(an.activities)
    # State intervals preserve every activity boundary.
    got = sorted((r.begin, r.end) for r in states)
    want = sorted((a.start, a.end) for a in an.activities)
    assert got == want


@given(nested_structures())
@settings(max_examples=40, deadline=None)
def test_classification_invariants(data):
    records, segments, t_end = data
    an = NoiseAnalysis(records, meta=meta(), span_ns=t_end)
    from repro.core.model import NoiseCategory

    for act in an.activities:
        # Service and tracer activities are never noise.
        if act.category in (NoiseCategory.SERVICE, NoiseCategory.TRACER):
            assert not act.is_noise
        # Context was the rank (these structures run over a rank context):
        # every non-service kernel activity is noise.
        if act.category not in (NoiseCategory.SERVICE, NoiseCategory.TRACER):
            assert act.is_noise
    # Breakdown total equals the sum of noise self times.
    assert sum(an.breakdown_ns().values()) == an.total_noise_ns()
    # noise_fraction is a fraction.
    assert 0.0 <= an.noise_fraction() <= 1.0


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=4),   # state code
            st.integers(min_value=1, max_value=500), # dwell time
        ),
        min_size=1,
        max_size=25,
    )
)
@settings(max_examples=50, deadline=None)
def test_timeline_occupancy_partitions(transitions):
    from repro.core.timeline import TaskTimeline
    from repro.simkernel.task import TaskState
    from recbuild import RANK

    builder = RecordBuilder()
    t = 0
    for state, dwell in transitions:
        builder.state(t, RANK, TaskState(state))
        t += dwell
    records = builder.build()
    tl = TaskTimeline(records, meta=meta(), end_ts=t)
    occupancy = tl.occupancy(RANK)
    # Occupancy fractions partition the observed window.
    assert sum(occupancy.values()) == pytest.approx(1.0)
    # Interval durations sum to the window.
    total = sum(iv.duration_ns for iv in tl.intervals(RANK))
    assert total == t
    # state_at agrees with intervals at every boundary midpoint.
    for iv in tl.intervals(RANK):
        mid = (iv.start + iv.end) // 2
        assert tl.state_at(RANK, mid) == iv.state


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000),  # start
            st.integers(min_value=1, max_value=500),     # duration
        ),
        min_size=0,
        max_size=30,
    ),
    st.integers(min_value=1, max_value=2000),
)
@settings(max_examples=50, deadline=None)
def test_timeline_conserves_noise(intervals, quantum):
    """Binning activities into quanta never loses or invents noise time."""
    builder = RecordBuilder()
    cursor = 0
    total = 0
    for gap, duration in intervals:
        start = cursor + gap
        end = start + duration
        builder.activity(start, end, Ev.IRQ_TIMER)
        total += duration
        cursor = end
    records = builder.build()
    span = max(cursor + 1, 1)
    an = NoiseAnalysis(records, meta=meta(), span_ns=span)
    timeline = an.noise_timeline(quantum, t0=0, t1=span)
    assert timeline.sum() == pytest.approx(total, rel=1e-9, abs=1e-6)
