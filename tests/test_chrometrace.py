"""Tests for the Chrome trace-event exporter."""

import json

import pytest

from repro.core import NoiseAnalysis
from repro.core.timeline import TaskTimeline
from repro.io.chrometrace import (
    activities_to_events,
    export_chrome_trace,
    read_chrome_trace,
    timeline_to_events,
)
from repro.simkernel.task import TaskState
from repro.tracing.events import Ev
from repro.util.units import SEC
from recbuild import RANK, RecordBuilder, meta


@pytest.fixture
def an():
    records = (
        RecordBuilder()
        .activity(1000, 3178, Ev.IRQ_TIMER, cpu=0)
        .activity(5000, 9000, Ev.EXC_PAGE_FAULT, cpu=1)
        .build()
    )
    return NoiseAnalysis(records, meta=meta(), span_ns=SEC, ncpus=2)


class TestActivityEvents:
    def test_complete_events(self, an):
        events = activities_to_events(an.table, meta())
        assert len(events) == 2
        tick = next(e for e in events if e["name"] == "timer_interrupt")
        assert tick["ph"] == "X"
        assert tick["ts"] == pytest.approx(1.0)      # us
        assert tick["dur"] == pytest.approx(2.178)   # us
        assert tick["pid"] == 0
        assert tick["args"]["noise"] is True

    def test_context_names_resolved(self, an):
        events = activities_to_events(an.table, meta())
        assert events[0]["args"]["context"] == "rank0"


class TestTimelineEvents:
    def test_states_mapped(self):
        records = (
            RecordBuilder()
            .state(0, RANK, TaskState.RUNNING)
            .state(4000, RANK, TaskState.BLOCKED)
            .build()
        )
        timeline = TaskTimeline(records, meta=meta(), end_ts=10_000)
        events = timeline_to_events(timeline, meta())
        names = {e["name"] for e in events}
        assert names == {"running", "blocked"}
        assert all(e["pid"] == 1_000_000 for e in events)


class TestExport:
    def test_file_loads_as_valid_json(self, tmp_path, an):
        path = str(tmp_path / "trace.json")
        n = export_chrome_trace(path, an.table, meta(), ncpus=2)
        events = read_chrome_trace(path)
        assert len(events) == n
        # Metadata names every CPU process.
        process_names = {
            e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e["name"] == "process_name"
        }
        assert process_names == {"cpu0", "cpu1"}

    def test_with_timeline(self, tmp_path, an):
        records = (
            RecordBuilder().state(0, RANK, TaskState.RUNNING).build()
        )
        timeline = TaskTimeline(records, meta=meta(), end_ts=SEC)
        path = str(tmp_path / "trace.json")
        export_chrome_trace(path, an.table, meta(), timeline=timeline)
        events = read_chrome_trace(path)
        thread_names = [
            e for e in events if e.get("ph") == "M" and e["name"] == "thread_name"
        ]
        assert any(e["args"]["name"] == "rank0" for e in thread_names)

    def test_read_rejects_garbage(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fp:
            json.dump([1, 2, 3], fp)
        with pytest.raises(ValueError):
            read_chrome_trace(path)

    def test_real_run_exports(self, tmp_path, ftq_analysis, ftq_run):
        node, trace, m = ftq_run
        path = str(tmp_path / "ftq.json")
        n = export_chrome_trace(
            path, ftq_analysis.table, m, ncpus=node.config.ncpus
        )
        assert n > len(ftq_analysis.table)
        # Valid JSON end to end.
        assert read_chrome_trace(path)
