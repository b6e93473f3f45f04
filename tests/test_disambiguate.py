"""Unit tests for noise disambiguation (the paper's Section V)."""

import pytest

from repro.core import (
    NoiseAnalysis,
    build_interruptions,
    find_ambiguous_pairs,
    find_composed,
    quantum_composition,
)
from repro.tracing.events import Ev
from repro.util.units import SEC
from recbuild import RecordBuilder, meta


def interruptions_of(records):
    an = NoiseAnalysis(records, meta=meta(), span_ns=SEC)
    return build_interruptions(an.table)


class TestFigure10Scenario:
    """A page fault (2913 ns) vs a timer irq + softirq (2648 + 254 = 2902 ns)."""

    def _records(self):
        return (
            RecordBuilder()
            .activity(10_000, 12_913, Ev.EXC_PAGE_FAULT)
            .activity(50_000, 52_648, Ev.IRQ_TIMER)
            .activity(52_648, 52_902, Ev.SOFTIRQ_TIMER)
            .build()
        )

    def test_pair_found(self):
        groups = interruptions_of(self._records())
        pairs = find_ambiguous_pairs(groups, tolerance_ns=50)
        assert len(pairs) == 1
        pair = pairs[0]
        assert pair.duration_gap_ns == 11
        signatures = {pair.first.signature(), pair.second.signature()}
        assert ("page_fault",) in signatures
        assert ("timer_interrupt", "run_timer_softirq") in signatures

    def test_explanation_names_both_causes(self):
        groups = interruptions_of(self._records())
        text = find_ambiguous_pairs(groups, tolerance_ns=50)[0].explain()
        assert "page_fault" in text
        assert "timer_interrupt" in text

    def test_tolerance_respected(self):
        groups = interruptions_of(self._records())
        assert find_ambiguous_pairs(groups, tolerance_ns=5) == []

    def test_same_signature_pairs_excluded_by_default(self):
        records = (
            RecordBuilder()
            .activity(10_000, 12_000, Ev.EXC_PAGE_FAULT)
            .activity(50_000, 52_010, Ev.EXC_PAGE_FAULT)
            .build()
        )
        groups = interruptions_of(records)
        assert find_ambiguous_pairs(groups, tolerance_ns=50) == []
        both = find_ambiguous_pairs(
            groups, tolerance_ns=50, require_different_signature=False
        )
        assert len(both) == 1

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            find_ambiguous_pairs([], tolerance_ns=-1)


class TestFigure9Scenario:
    """A page fault right before a timer tick in the same FTQ quantum."""

    def _records(self):
        b = RecordBuilder()
        # Three periodic ticks, 10 ms apart (within one quantum each).
        for i in range(3):
            t = 10_000_000 * (i + 1)
            b.activity(t, t + 2500, Ev.IRQ_TIMER)
            b.activity(t + 2500, t + 4500, Ev.SOFTIRQ_TIMER)
        # Quantum 1's tick is preceded by a page fault 3 us earlier.
        b.activity(20_000_000 - 3000, 20_000_000 - 500, Ev.EXC_PAGE_FAULT)
        return b.build()

    def test_composed_quantum_split_into_two_interruptions(self):
        groups = interruptions_of(self._records())
        quantum = quantum_composition(
            groups, t0=0, quantum_ns=10_000_000, index=1
        )
        # FTQ sees one spike; the trace shows two separate interruptions.
        assert len(quantum) == 2
        names = [set(g.signature()) for g in quantum]
        assert {"page_fault"} in names
        assert {"timer_interrupt", "run_timer_softirq"} in names

    def test_equidistant_ticks_confirmed(self):
        groups = interruptions_of(self._records())
        ticks = [
            g.start for g in groups if "timer_interrupt" in g.signature()
        ]
        gaps = {b - a for a, b in zip(ticks, ticks[1:])}
        assert gaps == {10_000_000}


class TestFindComposed:
    def test_cross_category_composition_detected(self):
        records = (
            RecordBuilder()
            .activity(1000, 2000, Ev.IRQ_TIMER)
            .activity(2000, 3000, Ev.EXC_PAGE_FAULT)
            .build()
        )
        findings = find_composed(interruptions_of(records))
        assert len(findings) == 1
        assert "page_fault" in findings[0].explain()

    def test_single_category_not_composed_by_default(self):
        records = (
            RecordBuilder()
            .activity(1000, 2000, Ev.IRQ_TIMER)
            .activity(2000, 3000, Ev.SOFTIRQ_TIMER)  # both periodic
            .build()
        )
        assert find_composed(interruptions_of(records)) == []
        loose = find_composed(
            interruptions_of(records), distinct_categories=False
        )
        assert len(loose) == 1
