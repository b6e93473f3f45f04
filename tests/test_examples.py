"""Smoke tests: the shipped examples must run.

Each example is executed in-process (runpy) with stdout captured; the slow
ones (multi-second sweeps, host wall-clock FTQ) are exercised with reduced
parameters where the script supports them, or skipped here and covered by
their underlying library tests.
"""

import runpy
import sys

EXAMPLES = "examples"


def run_example(monkeypatch, capsys, name, argv=()):
    monkeypatch.setattr(sys, "argv", [name] + list(argv))
    runpy.run_path(f"{EXAMPLES}/{name}", run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "quickstart.py")
        assert "noise breakdown" in out
        assert "interruptions on cpu0" in out

    def test_sequoia_case_study_short(self, monkeypatch, capsys):
        out = run_example(
            monkeypatch, capsys, "sequoia_case_study.py", argv=["0.4"]
        )
        assert "Table I" in out and "Table VI" in out
        assert "Figure 3" in out
        assert "UMT" in out

    def test_noise_disambiguation(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "noise_disambiguation.py")
        assert "different causes" in out
        assert "the trace splits it into" in out

    def test_paraver_export(self, monkeypatch, capsys, tmp_path):
        out = run_example(
            monkeypatch, capsys, "paraver_export.py",
            argv=[str(tmp_path), "SPHOT"],
        )
        assert "full trace" in out
        assert (tmp_path / "sphot_full.prv").exists()
        assert (tmp_path / "sphot.lttnz").exists()

    def test_custom_workload(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "custom_workload.py")
        assert "breakdown" in out
        assert "page fault" in out

    def test_noise_injection_study(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "noise_injection_study.py")
        assert "analyzer" in out
        assert "resonant" in out

    def test_cluster_study(self, monkeypatch, capsys):
        out = run_example(
            monkeypatch, capsys, "cluster_study.py",
            argv=["SPHOT", "4", "0.3"],
        )
        assert "subset convergence" in out
        assert "compressed" in out

    def test_generate_figures(self, monkeypatch, capsys, tmp_path):
        out = run_example(
            monkeypatch, capsys, "generate_figures.py",
            argv=[str(tmp_path), "0.3"],
        )
        assert "fig3_breakdown" in out
        assert (tmp_path / "fig1a_ftq.svg").exists()
        assert (tmp_path / "fig8b_softirq_umt.svg").exists()
