"""noiselint: every rule has a positive and a negative fixture, the repo
itself is clean, and a seeded violation is caught with rule id, location
and fix hint (the CI-gate contract of docs/static-analysis.md)."""

import json
import os

import pytest

from repro.check import (
    REGISTRY,
    Severity,
    SourceFile,
    all_rules,
)
from repro.check.engine import analyze_source, run_project
from repro.check.incremental import lint_paths
from repro.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "lint")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

#: Real vocabulary sources the schema rules need alongside fixtures.
VOCAB_PATHS = [
    os.path.join(SRC, "repro", "tracing", "events.py"),
    os.path.join(SRC, "repro", "core", "model.py"),
]


def load(path):
    with open(path, encoding="utf-8") as fp:
        return SourceFile(path, fp.read())


def check_fixture(name, with_vocab=False):
    sources = [load(os.path.join(FIXTURES, name))]
    if with_vocab:
        sources += [load(p) for p in VOCAB_PATHS]
    return run_project([analyze_source(s) for s in sources])


def rules_hit(result):
    return {v.rule for v in result.violations}


# ----------------------------------------------------------------------
# Positive fixtures: each rule fires, with location and hint.
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "fixture, rule, line",
    [
        ("det001_bad.py", "DET001", 9),
        ("det002_bad.py", "DET002", 9),
        ("det003_bad.py", "DET003", 7),
        ("nsx001_bad.py", "NSX001", 6),
        ("nsx001_dict_bad.py", "NSX001", 9),
        ("nsx002_bad.py", "NSX002", 8),
        ("hot001_bad.py", "HOT001", 7),
        ("hot002_bad.py", "HOT002", 10),
        ("hot002_sampler_bad.py", "HOT002", 12),
        ("hot002_transitive_bad.py", "HOT002", 14),
        ("con001_bad.py", "CON001", 10),
        ("con002_bad.py", "CON002", 10),
        ("con003_bad.py", "CON003", 12),
        ("con004_bad.py", "CON004", 17),
        ("asy001_bad.py", "ASY001", 8),
        ("asy001_transitive_bad.py", "ASY001", 11),
        ("asy002_bad.py", "ASY002", 10),
        ("asy003_bad.py", "ASY003", 20),
    ],
)
def test_rule_fires(fixture, rule, line):
    result = check_fixture(fixture)
    hits = [v for v in result.violations if v.rule == rule]
    assert hits, f"{rule} did not fire on {fixture}: {result.violations}"
    assert any(v.line == line for v in hits), [v.line for v in hits]
    for v in hits:
        assert v.hint, f"{rule} must carry a fix hint"
        assert v.severity == Severity.ERROR


def test_det001_flags_every_wall_clock_variant():
    result = check_fixture("det001_bad.py")
    assert len([v for v in result.violations if v.rule == "DET001"]) == 3


def test_schema_rules_fire_against_real_vocabulary():
    result = check_fixture("sch_bad.py", with_vocab=True)
    fixture_hits = {
        v.rule for v in result.violations if "sch_bad" in v.path
    }
    assert {"SCH001", "SCH002", "SCH003", "SCH004"} <= fixture_hits


def test_pragma_hygiene_rules():
    result = check_fixture("nl_bad.py")
    assert {"NL001", "NL002", "NL003"} <= rules_hit(result)
    # The bare pragma does not suppress: DET001 still fires.
    assert "DET001" in rules_hit(result)


def test_unparseable_file_is_reported_not_crashed():
    result = check_fixture("nl004_bad.py")
    assert rules_hit(result) == {"NL004"}
    assert result.failed


# ----------------------------------------------------------------------
# Negative fixtures: clean idioms stay clean.
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "fixture",
    ["det_ok.py", "nsx_ok.py", "hot_ok.py", "nl_ok.py", "con_ok.py",
     "asy_ok.py"],
)
def test_clean_fixture_passes(fixture):
    result = check_fixture(fixture)
    assert not result.violations, result.violations
    assert not result.failed


def test_schema_clean_fixture_passes():
    result = check_fixture("sch_ok.py", with_vocab=True)
    fixture_hits = [v for v in result.violations if "sch_ok" in v.path]
    assert not fixture_hits, fixture_hits


def test_justified_suppression_is_counted_not_failed():
    result = check_fixture("nl_ok.py")
    assert [v.rule for v in result.suppressed] == ["DET001"]
    assert not result.failed


# ----------------------------------------------------------------------
# The repo-gate contract.
# ----------------------------------------------------------------------

def test_repo_is_clean():
    """`lttng-noise check src` exits 0 on the repository itself."""
    result = lint_paths([SRC], no_cache=True)
    assert not result.failed, "\n".join(
        f"{v.path}:{v.line}: {v.rule} {v.message}" for v in result.violations
    )


def test_seeded_violation_is_caught(tmp_path):
    """Injecting time.time() into simkernel code fails the check with
    rule id, file:line, and a fix hint — the acceptance criterion."""
    engine_path = os.path.join(SRC, "repro", "simkernel", "engine.py")
    with open(engine_path, encoding="utf-8") as fp:
        text = fp.read()
    text += "\n\ndef seeded_violation():\n    return time.time()\n"
    bad_line = text.rstrip("\n").count("\n") + 1  # the return statement

    pkg = tmp_path / "repro" / "simkernel"
    pkg.mkdir(parents=True)
    bad_file = pkg / "engine.py"
    bad_file.write_text(text)

    result = lint_paths([str(tmp_path)], no_cache=True)
    assert result.failed
    hits = [v for v in result.violations if v.rule == "DET001"]
    assert len(hits) == 1
    v = hits[0]
    assert v.path == str(bad_file)
    assert v.line == bad_line
    assert v.hint


def test_every_rule_has_metadata_and_fixture_coverage():
    """Registry hygiene: ids are unique by construction; every rule states
    a scope rationale and a hint, and belongs to a documented pack."""
    assert all_rules(), "no rules registered"
    for rule in all_rules():
        assert rule.id and rule.name, rule
        assert rule.hint, f"{rule.id} has no fix hint"
        assert rule.rationale, f"{rule.id} has no rationale"
        assert rule.id[:3] in ("DET", "NSX", "HOT", "SCH", "CON", "ASY"), (
            rule.id
        )
    assert "NL001" not in REGISTRY  # hygiene lives in the engine


# ----------------------------------------------------------------------
# CLI surface.
# ----------------------------------------------------------------------

def test_cli_exit_codes(capsys):
    assert main(["check", SRC]) == 0
    capsys.readouterr()
    assert main(["check", os.path.join(FIXTURES, "det001_bad.py")]) == 1
    capsys.readouterr()
    assert main(["check", "/no/such/path"]) == 2


def test_cli_text_output_has_location_and_hint(capsys):
    main(["check", os.path.join(FIXTURES, "det001_bad.py")])
    out = capsys.readouterr().out
    assert "det001_bad.py:9:" in out
    assert "DET001" in out
    assert "hint:" in out


def test_cli_list_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.id in out


def test_cli_select_and_ignore(capsys):
    bad = os.path.join(FIXTURES, "det001_bad.py")
    assert main(["check", "--select", "DET002", bad]) == 0
    capsys.readouterr()
    assert main(["check", "--ignore", "DET001", bad]) == 0
    capsys.readouterr()
    assert main(["check", "--select", "DET001", bad]) == 1


def test_cli_json_schema(capsys):
    """The documented --json schema (docs/static-analysis.md)."""
    bad = os.path.join(FIXTURES, "det001_bad.py")
    assert main(["check", "--json", bad]) == 1
    payload = json.loads(capsys.readouterr().out)

    assert payload["version"] == 1
    assert payload["tool"] == "noiselint"
    assert payload["files_checked"] == 1
    summary = payload["summary"]
    assert set(summary) == {
        "errors", "warnings", "infos", "suppressed", "failed"
    }
    assert summary["failed"] is True
    assert summary["errors"] == len(payload["violations"]) > 0
    for violation in payload["violations"] + payload["suppressed"]:
        assert set(violation) == {
            "rule", "severity", "path", "line", "col", "message", "hint"
        }
        assert violation["severity"] in ("info", "warning", "error")
        assert isinstance(violation["line"], int)
    # sorted by (path, line, col, rule)
    keys = [
        (v["path"], v["line"], v["col"], v["rule"])
        for v in payload["violations"]
    ]
    assert keys == sorted(keys)


def test_cli_json_clean_run(capsys):
    ok = os.path.join(FIXTURES, "det_ok.py")
    assert main(["check", "--json", ok]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["failed"] is False
    assert payload["violations"] == []


# ----------------------------------------------------------------------
# CON/ASY pack details.
# ----------------------------------------------------------------------

def test_con001_reports_every_racing_context():
    result = check_fixture("con001_bad.py")
    hits = [v for v in result.violations if v.rule == "CON001"]
    assert sorted(v.line for v in hits) == [10, 16]
    for v in hits:
        assert "COUNTS" in v.message
        assert "thread:" in v.message and "main" in v.message


def test_con002_try_lock_is_exempt():
    result = check_fixture("con002_bad.py")
    lines = sorted(
        v.line for v in result.violations if v.rule == "CON002"
    )
    assert lines == [10, 12]  # probe()'s blocking=False stays quiet


def test_con003_names_both_witnesses():
    result = check_fixture("con003_bad.py")
    (v,) = [v for v in result.violations if v.rule == "CON003"]
    assert "ALPHA" in v.message and "BETA" in v.message
    assert "backward" in v.message


def test_asy001_transitive_names_the_chain():
    result = check_fixture("asy001_transitive_bad.py")
    (v,) = [v for v in result.violations if v.rule == "ASY001"]
    assert "via render" in v.message
    assert "open()" in v.message


def test_asy003_names_the_coroutine_and_state():
    result = check_fixture("asy003_bad.py")
    (v,) = [v for v in result.violations if v.rule == "ASY003"]
    assert "enqueue" in v.message
    assert "PENDING" in v.message


# ----------------------------------------------------------------------
# Seeded concurrency bugs are caught (the CON/ASY acceptance contract).
# ----------------------------------------------------------------------

def test_seeded_thread_shared_dict_write_is_caught(tmp_path):
    """An unlocked shared-dict write in a thread target fails the check."""
    pkg = tmp_path / "repro" / "obs"
    pkg.mkdir(parents=True)
    bad_file = pkg / "seeded.py"
    bad_file.write_text(
        "import threading\n"
        "\n"
        "TALLY = {}\n"
        "\n"
        "\n"
        "def _worker():\n"
        "    TALLY['n'] = TALLY.get('n', 0) + 1\n"
        "\n"
        "\n"
        "def start():\n"
        "    t = threading.Thread(target=_worker)\n"
        "    t.start()\n"
        "    TALLY['started'] = True\n"
        "    return t\n"
    )
    result = lint_paths([str(tmp_path)], no_cache=True)
    assert result.failed
    hits = [v for v in result.violations if v.rule == "CON001"]
    assert {v.line for v in hits} == {7, 13}
    assert all(v.path == str(bad_file) for v in hits)
    assert all(v.hint for v in hits)


def test_seeded_async_sleep_is_caught(tmp_path):
    """time.sleep inside an async handler fails the check with ASY001."""
    pkg = tmp_path / "repro" / "service"
    pkg.mkdir(parents=True)
    bad_file = pkg / "seeded.py"
    bad_file.write_text(
        "import time\n"
        "\n"
        "\n"
        "async def handle(request):\n"
        "    time.sleep(0.5)\n"
        "    return request\n"
    )
    result = lint_paths([str(tmp_path)], no_cache=True)
    assert result.failed
    (v,) = [v for v in result.violations if v.rule == "ASY001"]
    assert v.path == str(bad_file)
    assert v.line == 5
    assert "time.sleep" in v.message


# ----------------------------------------------------------------------
# SARIF reporter.
# ----------------------------------------------------------------------

def test_cli_sarif_document_shape(capsys):
    bad = os.path.join(FIXTURES, "det001_bad.py")
    assert main(["check", bad, "--format", "sarif"]) == 1
    doc = json.loads(capsys.readouterr().out)

    assert doc["version"] == "2.1.0"
    assert "sarif-2.1.0" in doc["$schema"]
    run = doc["runs"][0]
    rules = run["tool"]["driver"]["rules"]
    ids = [r["id"] for r in rules]
    assert len(ids) == len(set(ids))
    for rule_id in ("DET001", "CON001", "ASY001", "HOT002", "NL001"):
        assert rule_id in ids
    results = run["results"]
    assert results
    for res in results:
        assert rules[res["ruleIndex"]]["id"] == res["ruleId"]
        assert res["level"] in ("error", "warning", "note")
        region = res["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1
        assert region["startColumn"] >= 1  # 1-based, unlike the engine


def test_sarif_marks_pragma_suppressions_in_source(capsys):
    ok = os.path.join(FIXTURES, "nl_ok.py")
    assert main(["check", ok, "--format", "sarif"]) == 0
    doc = json.loads(capsys.readouterr().out)
    results = doc["runs"][0]["results"]
    suppressed = [r for r in results if "suppressions" in r]
    assert [r["ruleId"] for r in suppressed] == ["DET001"]
    assert suppressed[0]["suppressions"] == [{"kind": "inSource"}]
    live = [r for r in results if "suppressions" not in r]
    assert live == []


# ----------------------------------------------------------------------
# Incremental + parallel front-end.
# ----------------------------------------------------------------------

def _write_incremental_project(root):
    pkg = root / "repro" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "b.py").write_text("def helper():\n    return 1\n")
    (pkg / "a.py").write_text(
        "from repro.pkg.b import helper\n"
        "\n"
        "\n"
        "async def caller():\n"
        "    return helper()\n"
    )
    return pkg


def test_incremental_cache_reuses_unchanged_records(tmp_path):
    pkg = _write_incremental_project(tmp_path / "proj")
    cache = str(tmp_path / "cache")

    cold = lint_paths([str(pkg)], cache_dir=cache)
    assert (cold.files_analyzed, cold.files_reused) == (2, 0)
    warm = lint_paths([str(pkg)], cache_dir=cache)
    assert (warm.files_analyzed, warm.files_reused) == (0, 2)

    def key(result):
        return [
            (v.rule, v.path, v.line, v.col, v.message)
            for v in result.violations
        ]

    assert key(warm) == key(cold)


def test_incremental_cache_reanalyzes_only_the_edited_file(tmp_path):
    """A record depends on its own file alone: editing a callee re-analyzes
    the callee, and the caller's reused record still links to the new
    callee facts in the project phase."""
    pkg = _write_incremental_project(tmp_path / "proj")
    cache = str(tmp_path / "cache")
    clean = lint_paths([str(pkg)], cache_dir=cache)
    assert not clean.violations

    (pkg / "b.py").write_text(
        "import time\n"
        "\n"
        "\n"
        "def helper():\n"
        "    time.sleep(0.5)\n"
        "    return 1\n"
    )
    result = lint_paths([str(pkg)], cache_dir=cache)
    assert (result.files_analyzed, result.files_reused) == (1, 1)
    (v,) = [v for v in result.violations if v.rule == "ASY001"]
    assert v.path == str(pkg / "a.py")
    assert v.line == 5

    def findings(r):
        return [
            (v.rule, v.path, v.line, v.col, v.message)
            for v in r.violations + r.suppressed
        ]

    fresh = lint_paths([str(pkg)], no_cache=True)
    assert findings(result) == findings(fresh)


def test_incremental_no_cache_and_select_still_apply(tmp_path):
    pkg = tmp_path / "repro" / "obs"
    pkg.mkdir(parents=True)
    (pkg / "racy.py").write_text(
        "import threading\n"
        "\n"
        "SEEN = {}\n"
        "\n"
        "\n"
        "def _worker():\n"
        "    SEEN['x'] = 1\n"
        "\n"
        "\n"
        "def start():\n"
        "    threading.Thread(target=_worker).start()\n"
        "    SEEN['y'] = 2\n"
    )
    flagged = lint_paths([str(pkg)], no_cache=True)
    assert {v.rule for v in flagged.violations} == {"CON001"}
    ignored = lint_paths([str(pkg)], ignore=["CON001"], no_cache=True)
    assert not ignored.violations


def test_parallel_jobs_output_is_byte_identical(capsys):
    """--jobs N must not change a byte of the report (ordering included)."""
    serial_code = main(["check", FIXTURES, "--no-cache", "--format", "json"])
    serial_out = capsys.readouterr().out
    jobs_code = main([
        "check", FIXTURES, "--no-cache", "--format", "json", "--jobs", "2",
    ])
    jobs_out = capsys.readouterr().out
    assert jobs_code == serial_code == 1
    assert jobs_out == serial_out
