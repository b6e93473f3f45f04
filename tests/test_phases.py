"""Tests for phase-segmented analysis."""

import pytest

from repro.core import NoiseAnalysis
from repro.core.phases import phase_stats, split_phases
from repro.tracing.events import Ev, Flag
from recbuild import RANK, RecordBuilder, meta


def with_markers():
    b = RecordBuilder()
    # Markers at 1000 and 5000 (args 7 and 3); faults in each segment.
    b.raw(1000, Ev.MARKER, 0, Flag.POINT, RANK, 7)
    b.raw(5000, Ev.MARKER, 0, Flag.POINT, RANK, 3)
    b.activity(200, 300, Ev.EXC_PAGE_FAULT)        # pre-phase
    b.activity(2000, 2400, Ev.EXC_PAGE_FAULT)      # phase tag 7
    b.activity(3000, 3100, Ev.EXC_PAGE_FAULT)      # phase tag 7
    b.activity(8000, 8050, Ev.IRQ_TIMER)           # phase tag 3
    return NoiseAnalysis(b.build(), meta=meta(), span_ns=10_000)


class TestSplitPhases:
    def test_segments_and_tags(self):
        phases = split_phases(with_markers())
        assert len(phases) == 3
        assert [p.tag for p in phases] == [-1, 7, 3]
        assert phases[0].start == 200  # analysis start (first record)
        assert phases[1].start == 1000 and phases[1].end == 5000
        assert phases[2].end == 10_200  # span from start

    def test_no_markers_single_phase(self):
        records = RecordBuilder().activity(0, 100, Ev.IRQ_TIMER).build()
        analysis = NoiseAnalysis(records, meta=meta(), span_ns=1000)
        phases = split_phases(analysis)
        assert len(phases) == 1
        assert phases[0].tag == -1

    def test_duplicate_timestamps_deduplicated(self):
        b = RecordBuilder()
        b.raw(1000, Ev.MARKER, 0, Flag.POINT, RANK, 5)
        b.raw(1000, Ev.MARKER, 1, Flag.POINT, RANK, 5)
        b.activity(0, 10, Ev.IRQ_TIMER)
        analysis = NoiseAnalysis(b.build(), meta=meta(), span_ns=2000)
        assert len(split_phases(analysis)) == 2


class TestPhaseStats:
    def test_per_phase_fault_rates(self):
        analysis = with_markers()
        rows = phase_stats(analysis, "page_fault")
        assert len(rows) == 3
        _, pre = rows[0]
        _, mid = rows[1]
        _, late = rows[2]
        assert pre.count == 1
        assert mid.count == 2
        assert late.count == 0
        # Frequency normalized to the phase's own span.
        assert mid.freq == pytest.approx(2 / (4000 / 1e9))

    def test_breakdown_mix_shifts(self):
        analysis = with_markers()
        faults = phase_stats(analysis, "page_fault")
        ticks = phase_stats(analysis, "timer_interrupt")
        assert faults[1][1].total == 500
        assert ticks[1][1].total == 0
        assert ticks[2][1].total == 50
        assert faults[2][1].total == 0


class TestOnLammps:
    def test_init_phase_faults_dominate(self, lammps_run):
        node, trace, m = lammps_run
        analysis = NoiseAnalysis(trace, meta=m)
        phases = split_phases(analysis)
        assert len(phases) >= 3
        rows = phase_stats(analysis, "page_fault", phases)
        # Find the init phase (tag = init fault rate 2450) and a steady
        # phase (tag 16): the paper's Fig. 5b contrast, quantified.
        init = [s for p, s in rows if p.tag == 2450]
        steady = [s for p, s in rows if p.tag == 16]
        assert init and steady
        assert init[0].freq > 20 * max(s.freq for s in steady)
