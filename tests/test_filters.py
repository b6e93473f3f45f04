"""Unit tests for composable activity filters."""

import pytest

from repro.core import NoiseAnalysis, NoiseCategory
from repro.core.filters import (
    apply,
    by_category,
    by_cpu,
    by_event,
    by_pid,
    by_window,
    min_duration,
    noise_only,
)
from repro.tracing.events import Ev
from repro.util.units import SEC
from recbuild import RANK, RANK2, RecordBuilder, meta


@pytest.fixture
def table():
    records = (
        RecordBuilder()
        .activity(100, 200, Ev.IRQ_TIMER, cpu=0, pid=RANK)
        .activity(300, 900, Ev.EXC_PAGE_FAULT, cpu=1, pid=RANK2)
        .activity(1000, 1100, Ev.SYSCALL, cpu=0, pid=RANK)
        .build()
    )
    return NoiseAnalysis(records, meta=meta(), span_ns=SEC, ncpus=2).table


class TestAtomicFilters:
    def test_by_event_names_and_ids(self, table):
        assert len(apply(table, by_event("page_fault"))) == 1
        assert len(apply(table, by_event(Ev.IRQ_TIMER))) == 1
        assert len(apply(table, by_event("page_fault", "syscall"))) == 2

    def test_by_event_rejects_unknown(self):
        with pytest.raises(ValueError):
            by_event("bogus")

    def test_by_category(self, table):
        assert len(apply(table, by_category(NoiseCategory.SERVICE))) == 1

    def test_by_cpu(self, table):
        assert len(apply(table, by_cpu(0))) == 2

    def test_by_pid(self, table):
        assert len(apply(table, by_pid(RANK2))) == 1

    def test_by_window_overlap_semantics(self, table):
        assert len(apply(table, by_window(150, 400))) == 2

    def test_noise_only(self, table):
        assert len(apply(table, noise_only())) == 2  # syscall excluded

    def test_min_duration(self, table):
        assert len(apply(table, min_duration(500))) == 1


class TestComposition:
    def test_and(self, table):
        f = by_cpu(0) & noise_only()
        assert len(apply(table, f)) == 1

    def test_or(self, table):
        f = by_event("page_fault") | by_event("syscall")
        assert len(apply(table, f)) == 2

    def test_invert(self, table):
        f = ~by_event("syscall")
        assert len(apply(table, f)) == 2

    def test_multiple_filters_conjunctive(self, table):
        assert len(apply(table, by_cpu(0), by_event("syscall"))) == 1

    def test_label_propagation(self):
        f = by_cpu(0) & noise_only()
        assert "cpu" in f.label and "noise" in f.label

    def test_preemption_name_supported(self):
        f = by_event("preemption")
        assert f is not None
