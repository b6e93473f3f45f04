"""The columnar renders against their object-path oracles.

The noise chart, the ASCII trace and the SVG strip read the
:class:`~repro.core.model.ActivityTable`'s columns; ``tests/reference.py``
keeps the per-object originals (``ascii_trace_ref``, ``interruptions_ref``).
Random hand-built traces — nesting, preemptions, equal-length neighbours
that tie for a cell, windows that cut activities, widths that do not divide
the span — must render the same bytes both ways.  The renders build
:class:`~repro.core.model.Activity` objects only for what they return.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ActivityTable,
    NoiseAnalysis,
    SyntheticNoiseChart,
    build_interruptions,
)
from repro.core.report import (
    render_ascii_trace,
    render_chart,
    render_timeline,
)
from repro.io.svgplot import trace_strip
from repro.simkernel.task import TaskState
from repro.tracing.events import Ev
from recbuild import DAEMON, RANK, RANK2, RecordBuilder, meta
from reference import ReferenceChart, ascii_trace_ref, interruptions_ref

EVENTS = [
    Ev.IRQ_TIMER,
    Ev.SOFTIRQ_TIMER,
    Ev.EXC_PAGE_FAULT,
    Ev.IRQ_NET,
    Ev.SOFTIRQ_RCU,
    Ev.SYSCALL,
]
#: Few distinct lengths, so neighbours often tie for a cell.
LENGTHS = [0, 1, 5, 10, 10, 50, 100, 240]


@st.composite
def traces(draw):
    """``(records, ncpus)``: per-CPU runs of flat and nested activities
    and daemon preemptions, with small gaps between them."""
    builder = RecordBuilder()
    ncpus = draw(st.integers(min_value=1, max_value=3))
    for cpu in range(ncpus):
        rank = RANK if cpu % 2 == 0 else RANK2
        t = draw(st.integers(min_value=0, max_value=50))
        for _ in range(draw(st.integers(min_value=0, max_value=12))):
            t += draw(st.sampled_from([0, 0, 1, 200, 400]))
            length = draw(st.sampled_from(LENGTHS))
            event = draw(st.sampled_from(EVENTS))
            shape = draw(st.integers(min_value=0, max_value=5))
            if shape == 0:
                inner = draw(st.sampled_from(EVENTS))
                builder.entry(t, event, cpu=cpu, pid=rank)
                builder.activity(t + 1, t + 1 + length // 2, inner,
                                 cpu=cpu, pid=rank)
                builder.exit(t + length + 2, event, cpu=cpu, pid=rank)
                t += length + 2
            elif shape == 1:
                builder.state(t, rank, TaskState.RUNNABLE, cpu=cpu)
                builder.switch(t, rank, DAEMON, cpu=cpu)
                t += length + 1
                builder.switch(t, DAEMON, rank, cpu=cpu)
                builder.state(t, rank, TaskState.RUNNING, cpu=cpu)
            else:
                builder.activity(t, t + length, event, cpu=cpu, pid=rank)
                t += length
    return builder.build(), ncpus


def analysis_of(records, ncpus):
    return NoiseAnalysis(records, meta=meta(), ncpus=ncpus)


@given(
    trace=traces(),
    width=st.integers(min_value=1, max_value=300),
    cut=st.tuples(st.integers(-100, 3000), st.integers(1, 4000)),
    noise_only=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_ascii_trace_matches_reference(trace, width, cut, noise_only):
    records, ncpus = trace
    an = analysis_of(records, ncpus)
    rows = [a for a in an.activities if a.is_noise or not noise_only]
    t0 = an.start_ts + cut[0]
    t1 = t0 + cut[1]
    assert render_timeline(an, width, t0, t1, noise_only) == ascii_trace_ref(
        rows, t0, t1, an.ncpus, width
    )
    if an.end_ts > an.start_ts:
        assert render_timeline(an, width, noise_only=noise_only) == (
            ascii_trace_ref(rows, an.start_ts, an.end_ts, an.ncpus, width)
        )


@given(
    trace=traces(),
    gap=st.sampled_from([0, 1, 150, 300, 1000]),
    cpu=st.sampled_from([None, 0, 1]),
    noise_only=st.booleans(),
    probe=st.tuples(st.integers(-100, 3000), st.integers(0, 500)),
    top=st.integers(min_value=0, max_value=6),
)
@settings(max_examples=150, deadline=None)
def test_chart_matches_reference(trace, gap, cpu, noise_only, probe, top):
    records, ncpus = trace
    an = analysis_of(records, ncpus)
    want = interruptions_ref(an.activities, gap, cpu, noise_only)
    assert build_interruptions(an.table, gap, cpu, noise_only) == want
    chart = SyntheticNoiseChart(
        an, cpu=cpu, merge_gap_ns=gap, noise_only=noise_only
    )
    ref = ReferenceChart(an, want, cpu)
    times, noise = chart.series()
    assert times.tolist() == [g.start for g in want]
    assert noise.tolist() == [g.noise_ns for g in want]
    assert chart.total_noise_ns() == sum(g.noise_ns for g in want)
    assert len(chart) == len(want)
    for n in (0, 1, top, len(want) + 1):
        assert chart.largest(n) == ref.largest(n)
    t = an.start_ts + probe[0]
    assert chart.at(t, slack_ns=probe[1]) == ref.at(t, slack_ns=probe[1])
    for limit in (None, 0, top):
        assert chart.window(t, t + probe[1], limit) == ref.window(
            t, t + probe[1]
        )[:limit]
    assert render_chart(chart, top) == render_chart(ref, top)
    window = (t, t + probe[1])
    assert render_chart(chart, top, window) == render_chart(ref, top, window)
    assert chart.interruptions == want


def test_cells_follow_the_edges_when_width_does_not_divide_the_span():
    """Span 10, width 3: cells [0,3) [3,6) [6,10).  An activity on [3,4)
    lies in cell 1, and one on [2,4) in cells 0 and 1; a cell range taken
    as ``(t - t0) * width // span`` put the first in cell 0 (blank) and
    the second only in cell 0."""
    one = RecordBuilder().activity(3, 4, Ev.EXC_PAGE_FAULT).build()
    an = NoiseAnalysis(one, meta=meta(), span_ns=10)
    assert render_ascii_trace(an.table, 0, 10, 1, 3).startswith("cpu0: | F |")
    two = RecordBuilder().activity(2, 4, Ev.EXC_PAGE_FAULT).build()
    an = NoiseAnalysis(two, meta=meta(), span_ns=10)
    assert render_ascii_trace(an.table, 0, 10, 1, 3).startswith("cpu0: |FF |")


def test_empty_cells_of_a_width_wider_than_the_span():
    """Width 20 over span 10: every other cell is empty.  Activity
    [0, 1) fills cell 1, the only cell covering [0, 1)."""
    records = RecordBuilder().activity(0, 1, Ev.IRQ_TIMER).build()
    an = NoiseAnalysis(records, meta=meta(), span_ns=10)
    text = render_ascii_trace(an.table, 0, 10, 1, 20)
    assert text == ascii_trace_ref(an.activities, 0, 10, 1, 20)
    assert text.startswith("cpu0: | t" + " " * 18 + "|")


@pytest.fixture
def counted_rows(monkeypatch):
    """The number of ``Activity`` objects each ``ActivityTable.rows``
    call builds, in call order."""
    built = []
    rows = ActivityTable.rows

    def counting(self, mask=None):
        out = rows(self, mask)
        built.append(len(out))
        return out

    monkeypatch.setattr(ActivityTable, "rows", counting)
    return built


def test_renders_build_only_what_they_print(amg_analysis, counted_rows):
    an = amg_analysis
    want = interruptions_ref(an.table.rows())
    counted_rows.clear()
    render_timeline(an, 100)
    render_timeline(an, 100, noise_only=False)
    trace_strip(an.table, an.start_ts, an.end_ts, an.ncpus, "strip")
    assert counted_rows == []
    chart = SyntheticNoiseChart(an)
    assert counted_rows == []
    text = render_chart(chart, 20)
    largest = sorted(want, key=lambda g: g.noise_ns, reverse=True)[:20]
    assert sum(counted_rows) == sum(len(g.activities) for g in largest)
    assert text.startswith(f"{len(want)} interruptions\n")
    assert len(want) > 1000 and sum(counted_rows) < 100
