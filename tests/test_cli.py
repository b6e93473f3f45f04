"""Tests for the command-line interface and TraceMeta serialization."""

import os

import pytest

from repro.cli import main
from repro.core import TraceMeta
from repro.core.model import TaskInfo
from repro.simkernel.task import TaskKind


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One FTQ recording shared by the read-only CLI tests."""
    base = str(tmp_path_factory.mktemp("cli") / "ftq")
    rc = main(
        ["record", "FTQ", "--duration", "500ms", "--seed", "4",
         "--ncpus", "2", "-o", base]
    )
    assert rc == 0
    return base


class TestRecord:
    def test_writes_trace_and_meta(self, recorded):
        assert os.path.exists(recorded + ".lttnz")
        assert os.path.exists(recorded + ".meta.json")

    def test_sequoia_workload(self, tmp_path, capsys):
        base = str(tmp_path / "sphot")
        rc = main(
            ["record", "sphot", "--duration", "300ms", "-o", base]
        )
        assert rc == 0
        assert "SPHOT" in capsys.readouterr().out

    def test_unknown_workload(self, tmp_path, capsys):
        rc = main(["record", "HPL", "-o", str(tmp_path / "x")])
        assert rc == 2

    def test_policy_flags_and_compression(self, tmp_path, capsys):
        base = str(tmp_path / "nohz")
        rc = main(
            ["record", "FTQ", "--duration", "300ms", "--ncpus", "4",
             "--nohz", "--hz", "250", "--compress", "-o", base]
        )
        assert rc == 0
        # Compressed trace parses and reflects the hz override.
        rc = main(["report", base + ".lttnz"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "timer_interrupt" in out


class TestReport:
    def test_report_prints_tables(self, recorded, capsys):
        rc = main(["report", recorded + ".lttnz"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "timer_interrupt" in out
        assert "Noise breakdown" in out
        assert "total noise" in out

    def test_all_events_includes_service(self, recorded, capsys):
        main(["report", recorded + ".lttnz", "--all-events"])
        out = capsys.readouterr().out
        assert "preempt:lttd" in out or "syscall" in out

    def test_phase_report(self, tmp_path, capsys):
        base = str(tmp_path / "lmp")
        main(["record", "LAMMPS", "--duration", "600ms", "--ncpus", "2",
              "-o", base])
        capsys.readouterr()
        rc = main(["report", base + ".lttnz", "--phases", "page_fault"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "phases (" in out

    def test_json_output(self, recorded, capsys):
        import json

        rc = main(["report", recorded + ".lttnz", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ncpus"] == 2
        assert "timer_interrupt" in payload["events"]
        assert 0 <= payload["noise_fraction"] < 1
        assert abs(sum(payload["breakdown"].values()) - 1.0) < 1e-6

    def test_json_output_is_the_service_payload(self, recorded, capsys):
        """``report --json`` is the service's analysis result without the
        two keys only the service adds, on the same trace."""
        import json

        from repro.core.analysis import NoiseAnalysis
        from repro.tracing.ctf import Trace
        from repro.service.jobs import analysis_payload

        assert main(["report", recorded + ".lttnz", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        analysis = NoiseAnalysis(
            Trace.from_file(recorded + ".lttnz"),
            meta=TraceMeta.from_file(recorded + ".meta.json"),
        )
        service = json.loads(json.dumps(analysis_payload(analysis)))
        del service["per_cpu_noise_ns"], service["analyze_text"]
        assert report == service


class TestChart:
    def test_largest(self, recorded, capsys):
        rc = main(["chart", recorded + ".lttnz", "--cpu", "0", "--top", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "interruptions" in out
        assert "noise=" in out

    def test_window_zoom(self, recorded, capsys):
        rc = main(
            ["chart", recorded + ".lttnz", "--window", "100ms:150ms"]
        )
        assert rc == 0

    def test_ambiguous_listing(self, recorded, capsys):
        rc = main(["chart", recorded + ".lttnz", "--ambiguous", "100"])
        assert rc == 0
        assert "different-cause pairs" in capsys.readouterr().out


class TestExport:
    def test_all_formats(self, recorded, tmp_path, capsys):
        rc = main(
            [
                "export",
                recorded + ".lttnz",
                "--paraver", str(tmp_path / "pv"),
                "--csv", str(tmp_path / "a.csv"),
                "--npz", str(tmp_path / "a.npz"),
            ]
        )
        assert rc == 0
        assert os.path.exists(str(tmp_path / "pv.prv"))
        assert os.path.exists(str(tmp_path / "a.csv"))
        assert os.path.exists(str(tmp_path / "a.npz"))

    def test_no_format_is_error(self, recorded):
        assert main(["export", recorded + ".lttnz"]) == 2


class TestTimelineCommand:
    def test_ascii_timeline(self, recorded, capsys):
        rc = main(["timeline", recorded + ".lttnz", "--width", "60"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cpu0: |" in out
        assert "legend:" in out

    def test_timeline_window(self, recorded, capsys):
        rc = main(
            ["timeline", recorded + ".lttnz", "--window", "0ms:100ms",
             "--width", "40", "--all-events"]
        )
        assert rc == 0

    def test_width_out_of_bounds_exits_2(self, recorded, capsys):
        from repro.core.report import MAX_TIMELINE_WIDTH

        for width in (0, MAX_TIMELINE_WIDTH + 1, 1_000_000_000):
            assert main(["timeline", recorded + ".lttnz",
                         "--width", str(width)]) == 2
            err = capsys.readouterr().err
            assert f"--width must be in 1..{MAX_TIMELINE_WIDTH}" in err


class TestExportChrome:
    def test_chrome_export(self, recorded, tmp_path, capsys):
        rc = main(
            ["export", recorded + ".lttnz", "--chrome",
             str(tmp_path / "t.json")]
        )
        assert rc == 0
        from readers import read_chrome_trace

        assert read_chrome_trace(str(tmp_path / "t.json"))


class TestCompareCommand:
    def test_compare_identical_is_unchanged(self, recorded, capsys):
        rc = main(["compare", recorded + ".lttnz", recorded + ".lttnz"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "unchanged" in out

    def test_fail_on_regression(self, recorded, tmp_path, capsys):
        # A noisier configuration (HZ=1000) must flag periodic regressions.
        noisy = str(tmp_path / "noisy")
        main(["record", "FTQ", "--duration", "500ms", "--seed", "4",
              "--ncpus", "2", "--hz", "1000", "-o", noisy])
        rc = main(
            ["compare", recorded + ".lttnz", noisy + ".lttnz",
             "--fail-on-regression"]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "regressed" in out


class TestFtqCompare:
    def test_outputs_statistics(self, recorded, capsys):
        rc = main(["ftq-compare", recorded + ".lttnz"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "correlation" in out

    def test_custom_quantum(self, recorded, capsys):
        rc = main(
            ["ftq-compare", recorded + ".lttnz", "--quantum", "2ms",
             "--op", "1us"]
        )
        assert rc == 0


class TestFitReplay:
    def test_fit_then_replay(self, recorded, tmp_path, capsys):
        profile_path = str(tmp_path / "profile.npz")
        rc = main(["fit", recorded + ".lttnz", "-o", profile_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "timer_interrupt" in out and "saved" in out

        replay_base = str(tmp_path / "replayed")
        rc = main(
            ["replay", profile_path, "--duration", "300ms", "--ncpus", "2",
             "-o", replay_base]
        )
        assert rc == 0
        rc = main(["report", replay_base + ".lttnz"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "injected_noise" in out


class TestTraceMetaSerialization:
    def test_json_roundtrip(self):
        meta = TraceMeta(
            {
                1000: TaskInfo(1000, "amg.0", TaskKind.RANK),
                100: TaskInfo(100, "rpciod/0", TaskKind.KDAEMON),
                102: TaskInfo(102, "lttd", TaskKind.TRACERD),
            }
        )
        back = TraceMeta.from_json(meta.to_json())
        assert back.name_of(1000) == "amg.0"
        assert back.kind_of(102) == TaskKind.TRACERD
        assert back.is_application(1000)
        assert not back.is_application(102)

    def test_file_roundtrip(self, tmp_path):
        meta = TraceMeta({5: TaskInfo(5, "x", TaskKind.UDAEMON)})
        path = str(tmp_path / "m.json")
        meta.to_file(path)
        assert TraceMeta.from_file(path).kind_of(5) == TaskKind.UDAEMON

    def test_sidecar_found_automatically(self, recorded, capsys):
        # report with no --meta must pick up the .meta.json sidecar: the
        # tracer daemon gets its real name.
        main(["report", recorded + ".lttnz", "--all-events"])
        out = capsys.readouterr().out
        assert "lttd" in out


class TestSweepCommand:
    def test_sweep_prints_summary_and_uses_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["sweep", "FTQ", "--duration", "100ms", "--seeds", "0:3",
                "--ncpus", "2", "--serial", "--cache-dir", cache_dir]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert "noise_fraction" in out and "n=3" in out
        assert "[3/3]" in err and "cache" not in err.split("\n")[2]
        # Second invocation: every run served from the cache.
        assert main(argv) == 0
        out2, err2 = capsys.readouterr()
        assert err2.count(": cache") == 3
        assert out2.splitlines()[1:] == out.splitlines()[1:]

    def test_sweep_unknown_workload(self, capsys):
        assert main(["sweep", "HPL", "--no-cache"]) == 2

    def test_sweep_seed_list_and_clear_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["sweep", "FTQ", "--duration", "100ms", "--seeds", "1,5",
                "--ncpus", "2", "--serial", "--cache-dir", cache_dir]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--clear-cache"]) == 0
        _, err = capsys.readouterr()
        assert "cleared 2 cached runs" in err
        assert ": cache" not in err  # cache was emptied first
