"""Tests for the ASCII trace view and workload phase markers."""

import pytest

from repro.core import ActivityTable, NoiseAnalysis
from repro.core.report import MAX_TIMELINE_WIDTH, render_ascii_trace
from repro.tracing.events import Ev
from repro.util.units import SEC
from recbuild import RecordBuilder, meta


def analysis_of(records, span_ns=SEC, ncpus=1):
    return NoiseAnalysis(records, meta=meta(), span_ns=span_ns, ncpus=ncpus)


class TestAsciiTrace:
    def test_categories_rendered_in_place(self):
        records = (
            RecordBuilder()
            .activity(0, 100, Ev.EXC_PAGE_FAULT, cpu=0)          # first cell
            .activity(900, 1000, Ev.IRQ_TIMER, cpu=0)            # last cell
            .build()
        )
        an = analysis_of(records, span_ns=1000)
        text = render_ascii_trace(an.table, 0, 1000, ncpus=1, width=10)
        row = text.splitlines()[0]
        cells = row.split("|")[1]
        assert cells[0] == "F"
        assert cells[-1] == "t"
        assert cells[4] == " "  # quiet middle

    def test_dominant_category_wins_cell(self):
        records = (
            RecordBuilder()
            .activity(0, 80, Ev.EXC_PAGE_FAULT, cpu=0)
            .activity(80, 100, Ev.IRQ_TIMER, cpu=0)
            .build()
        )
        an = analysis_of(records, span_ns=100)
        text = render_ascii_trace(an.table, 0, 100, ncpus=1, width=1)
        assert "|F|" in text

    def test_one_row_per_cpu_and_legend(self):
        records = RecordBuilder().activity(0, 10, Ev.IRQ_TIMER, cpu=1).build()
        an = analysis_of(records, span_ns=100, ncpus=3)
        text = render_ascii_trace(an.table, 0, 100, ncpus=3, width=5)
        lines = text.splitlines()
        assert lines[0].startswith("cpu0:")
        assert lines[2].startswith("cpu2:")
        assert "legend:" in lines[3]

    def test_validation(self):
        with pytest.raises(ValueError):
            render_ascii_trace(ActivityTable.empty(), 100, 100, ncpus=1)
        with pytest.raises(ValueError):
            render_ascii_trace(ActivityTable.empty(), 0, 100, ncpus=1, width=0)
        with pytest.raises(ValueError):
            render_ascii_trace(
                ActivityTable.empty(), 0, 100, ncpus=1,
                width=MAX_TIMELINE_WIDTH + 1,
            )

    def test_lammps_fault_placement_visible(self, lammps_analysis):
        table = lammps_analysis.table
        text = render_ascii_trace(
            table.take(table.mask(event=Ev.EXC_PAGE_FAULT)),
            lammps_analysis.start_ts,
            lammps_analysis.end_ts,
            ncpus=lammps_analysis.ncpus,
            width=50,
        )
        row = text.splitlines()[0].split("|")[1]
        # Fig. 5b in ASCII: faults at the start, quiet middle.
        assert row[0] == "F"
        assert row[20:30].count("F") <= 3


class TestMarkers:
    def test_phase_markers_recorded(self, lammps_run):
        node, trace, m = lammps_run
        an = NoiseAnalysis(trace, meta=m)
        marks = an.markers()
        # LAMMPS has 3 phases; each boundary emits one marker per cycle.
        assert len(marks) >= 3
        # args carry the fault rates of the phase plan.
        rates = set(marks[:, 2].tolist())
        assert 16 in rates or 2450 in rates

    def test_no_markers_in_hand_built_trace(self):
        an = analysis_of(RecordBuilder().activity(0, 10, Ev.IRQ_TIMER).build())
        assert an.markers().shape == (0, 3)
