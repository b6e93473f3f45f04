"""Unit tests for the Paraver exporter and parser."""

import pytest

from repro.core import NoiseAnalysis
from repro.io.paraver import (
    EVENT_TYPE_KERNEL,
    ParaverWriter,
    parse_prv,
)
from repro.tracing.events import Ev
from repro.util.units import SEC
from recbuild import RANK, RecordBuilder, meta


@pytest.fixture
def simple_analysis():
    records = (
        RecordBuilder()
        .activity(100, 200, Ev.IRQ_TIMER, cpu=0, pid=RANK)
        .activity(500, 900, Ev.EXC_PAGE_FAULT, cpu=1, pid=RANK)
        .build()
    )
    return NoiseAnalysis(records, meta=meta(), span_ns=SEC, ncpus=2)


class TestWriter:
    def test_header_format(self, simple_analysis):
        writer = ParaverWriter(meta(), ncpus=2, end_ts=SEC)
        header = writer.header()
        assert header.startswith("#Paraver")
        assert f"{SEC}_ns" in header
        assert "1(2)" in header

    def test_state_and_event_records(self, simple_analysis):
        writer = ParaverWriter(meta(), ncpus=2, end_ts=SEC)
        lines = writer.prv_lines(simple_analysis.table)
        # Each activity: one state line + begin/end event lines.
        assert len(lines) == 6
        assert lines[0].startswith("1:")
        assert f":{EVENT_TYPE_KERNEL}:" in lines[1]

    def test_cpu_indices_one_based(self, simple_analysis):
        writer = ParaverWriter(meta(), ncpus=2, end_ts=SEC)
        lines = writer.prv_lines(simple_analysis.table)
        state_cpus = {int(l.split(":")[1]) for l in lines if l.startswith("1:")}
        assert state_cpus == {1, 2}

    def test_pcf_names_paper_colors(self):
        writer = ParaverWriter(meta(), ncpus=2, end_ts=SEC)
        pcf = writer.pcf_text()
        assert "run_timer_softirq" in pcf
        assert "{255,0,0}" in pcf  # page faults red, as in Fig. 5
        assert "{0,160,0}" in pcf  # preemptions green, as in Fig. 7
        assert "STATES" in pcf and "EVENT_TYPE" in pcf

    def test_row_lists_cpus_and_tasks(self):
        writer = ParaverWriter(meta(), ncpus=2, end_ts=SEC)
        row = writer.row_text()
        assert "LEVEL CPU SIZE 2" in row
        assert "rank0" in row
        assert "rpciod/0" in row


class TestExportAndParse:
    def test_bundle_roundtrip(self, tmp_path, simple_analysis):
        writer = ParaverWriter(meta(), ncpus=2, end_ts=SEC)
        prv, pcf, row = writer.export(
            str(tmp_path / "trace"), simple_analysis.table
        )
        header, records = parse_prv(prv)
        states = [r for r in records if r.kind == 1]
        events = [r for r in records if r.kind == 2]
        assert len(states) == 2
        assert len(events) == 4
        # Activity boundaries preserved exactly.
        fault_state = next(r for r in states if r.end - r.begin == 400)
        assert (fault_state.begin, fault_state.end) == (500, 900)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prv("this is not a trace")

    def test_parse_rejects_malformed_state(self):
        with pytest.raises(ValueError):
            parse_prv("#Paraver (x):1_ns:1(1):1:1(1)\n1:1:1:1:1:0")

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_prv("#Paraver (x):1_ns:1(1):1:1(1)\n7:1:2:3")

    def test_parse_multi_event_line(self):
        text = (
            "#Paraver (x):1_ns:1(1):1:1(1)\n"
            "2:1:1:1:1:100:90000001:5:90000002:7"
        )
        _, records = parse_prv(text)
        assert len(records) == 2
        assert {r.etype for r in records} == {90000001, 90000002}


class TestTaskStateExport:
    def test_timeline_states_in_prv(self, tmp_path):
        from repro.core.timeline import TaskTimeline
        from repro.simkernel.task import TaskState
        from repro.io.paraver import STATE_BLOCKED, STATE_READY

        records = (
            RecordBuilder()
            .state(0, RANK, TaskState.RUNNING)
            .state(4000, RANK, TaskState.RUNNABLE)
            .state(4500, RANK, TaskState.RUNNING)
            .state(8000, RANK, TaskState.BLOCKED)
            .build()
        )
        timeline = TaskTimeline(records, meta=meta(), end_ts=10_000)
        writer = ParaverWriter(meta(), ncpus=1, end_ts=10_000)
        lines = writer.state_lines(timeline)
        values = [int(l.split(":")[-1]) for l in lines]
        assert STATE_READY in values
        assert STATE_BLOCKED in values
        # Intervals ordered by start time.
        starts = [int(l.split(":")[5]) for l in lines]
        assert starts == sorted(starts)

    def test_export_with_timeline_parses(self, tmp_path, simple_analysis):
        from repro.core.timeline import TaskTimeline

        timeline = TaskTimeline(
            simple_analysis.records, meta=meta(), end_ts=SEC
        )
        writer = ParaverWriter(meta(), ncpus=2, end_ts=SEC)
        prv, _, _ = writer.export(
            str(tmp_path / "with_states"),
            simple_analysis.table,
            timeline=timeline,
        )
        header, records = parse_prv(prv)
        assert records  # parseable with states included

    def test_pcf_names_ready_state(self):
        writer = ParaverWriter(meta(), ncpus=1, end_ts=SEC)
        assert "Ready (displaced)" in writer.pcf_text()


class TestOnRealTrace:
    def test_full_pipeline_export(self, tmp_path, ftq_analysis, ftq_run):
        node, trace, m = ftq_run
        writer = ParaverWriter(m, node.config.ncpus, ftq_analysis.end_ts)
        prv, _, _ = writer.export(
            str(tmp_path / "ftq"), ftq_analysis.table
        )
        header, records = parse_prv(prv)
        assert len(records) == 3 * len(ftq_analysis.table)
