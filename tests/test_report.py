"""Unit tests for the text reporting helpers."""

from repro.core import NoiseCategory
from repro.core.histogram import duration_histogram
from repro.core.model import Interruption, Activity
from repro.core.report import (
    format_breakdown,
    format_histogram,
    format_interruptions,
    format_table,
)
from repro.util.stats import describe_durations
from repro.util.units import SEC


def stats_row(values):
    return describe_durations(values, span_ns=SEC)


class TestFormatTable:
    def test_contains_rows_and_header(self):
        text = format_table(
            "Table I: Page fault statistics",
            {"AMG": stats_row([100, 300]), "IRS": stats_row([200])},
        )
        assert "Table I" in text
        assert "AMG" in text and "IRS" in text
        assert "freq(ev/s)" in text

    def test_paper_reference_rows(self):
        text = format_table(
            "T",
            {"AMG": stats_row([100])},
            paper_rows={"AMG": (1693.0, 4380.0, 69_398_061, 250)},
        )
        assert "(paper)" in text
        assert "69398061" in text


class TestFormatBreakdown:
    def test_rows_and_percentages(self):
        text = format_breakdown(
            "Figure 3",
            {
                "AMG": {NoiseCategory.PAGE_FAULT: 0.824},
                "LAMMPS": {NoiseCategory.PREEMPTION: 0.802},
            },
        )
        assert "82.4%" in text
        assert "80.2%" in text
        assert "page fault" in text


class TestFormatInterruptions:
    def _group(self):
        act = Activity(
            event=1,
            name="timer_interrupt",
            cpu=0,
            pid=1000,
            start=1000,
            end=3178,
            total_ns=2178,
            self_ns=2178,
        )
        return Interruption(cpu=0, start=1000, end=3178, activities=[act])

    def test_renders_components(self):
        text = format_interruptions([self._group()])
        assert "timer_interrupt" in text
        assert "2.178 us" in text

    def test_limit(self):
        groups = [self._group() for _ in range(5)]
        text = format_interruptions(groups, limit=2)
        assert text.count("timer_interrupt") == 2
        assert "..." in text


class TestFormatHistogram:
    def test_ascii_bars(self):
        hist = duration_histogram([100] * 50 + [500] * 10, bins=5, cut_pct=100.0)
        text = format_histogram(hist)
        assert "#" in text

    def test_empty(self):
        assert "empty" in format_histogram(duration_histogram([]))


def test_full_report_does_not_import_numpy_ma():
    """``numpy.ma`` costs ~14 ms to import, paid by every one-shot
    ``report`` or ``export --chrome`` process that pulls it in; in a
    fresh interpreter, a full report with task states must not."""
    import os
    import subprocess
    import sys

    script = """
import sys
from recbuild import RANK, DAEMON, RecordBuilder, meta
from repro.core import NoiseAnalysis
from repro.core.report import full_report
from repro.simkernel.task import TaskState
from repro.tracing.events import Ev
records = (
    RecordBuilder()
    .activity(10, 50, Ev.IRQ_TIMER)
    .state(100, RANK, TaskState.RUNNABLE)
    .switch(100, RANK, DAEMON)
    .switch(300, DAEMON, RANK)
    .state(300, RANK, TaskState.RUNNING)
    .build()
)
text = full_report(NoiseAnalysis(records, meta=meta(), span_ns=1000))
assert "task states" in text, text
print("numpy.ma" in sys.modules)
"""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(here, "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    assert out.strip() == "False"
