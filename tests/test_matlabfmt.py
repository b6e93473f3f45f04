"""Unit tests for the Matlab-style numeric exporters."""

import numpy as np
import pytest

from repro.core import ActivityTable, NoiseAnalysis
from repro.io.matlabfmt import (
    activities_to_csv,
    activity_arrays,
    export_npz,
)
from repro.tracing.events import Ev
from repro.util.units import SEC
from readers import read_activities_csv
from recbuild import RecordBuilder, meta


@pytest.fixture
def an():
    records = (
        RecordBuilder()
        .activity(100, 200, Ev.IRQ_TIMER)
        .activity(500, 900, Ev.EXC_PAGE_FAULT)
        .activity(1000, 1100, Ev.SYSCALL)
        .build()
    )
    return NoiseAnalysis(records, meta=meta(), span_ns=SEC)


class TestCsv:
    def test_roundtrip(self, tmp_path, an):
        path = str(tmp_path / "acts.csv")
        n = activities_to_csv(path, an.table)
        rows = read_activities_csv(path)
        assert n == len(rows) == 3
        fault = next(r for r in rows if r["name"] == "page_fault")
        assert fault["total_ns"] == 400
        assert fault["is_noise"] is True
        syscall = next(r for r in rows if r["name"] == "syscall")
        assert syscall["is_noise"] is False

    def test_empty(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        assert activities_to_csv(path, ActivityTable.empty()) == 0
        assert read_activities_csv(path) == []


class TestArrays:
    def test_columns_aligned(self, an):
        cols = activity_arrays(an.table)
        assert cols["start"].shape == cols["self_ns"].shape
        assert cols["is_noise"].sum() == 2
        assert int(cols["total_ns"].sum()) == 100 + 400 + 100


class TestNpz:
    def test_bundle_contents(self, tmp_path, an):
        path = str(tmp_path / "bundle.npz")
        export_npz(path, an)
        data = np.load(path)
        assert "chart_times" in data
        assert "durations_page_fault" in data
        assert data["span_ns"][0] == SEC
        assert len(data["start"]) == 3

    def test_on_real_run(self, tmp_path, ftq_analysis):
        path = str(tmp_path / "ftq.npz")
        export_npz(path, ftq_analysis, chart_cpu=0)
        data = np.load(path)
        assert data["chart_noise_ns"].sum() > 0
