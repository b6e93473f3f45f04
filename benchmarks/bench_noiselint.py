"""Performance of noiselint itself: incremental re-lint speedup.

Not a paper experiment — the linter's own CI gate.  Whole-project
analysis (call graph + CON/ASY packs) made a cold ``lttng-noise check
src`` seconds long; the incremental cache exists so the *warm* re-lint —
the one every commit pays — stays interactive.  The contract is a >=5x
cold/warm ratio (in practice it is >20x: a warm run re-reads and
re-hashes sources but skips parsing and fact extraction entirely).

A cached record depends on its own file alone, so a one-line edit to a
module that most of ``src/`` imports re-analyzes that one file.  The
bench lints a copy of ``src/`` so it can make that edit.
"""

import os
import shutil
import time

from repro.check.incremental import lint_paths

from trajectory import record_metric

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

#: Imported, directly or not, by most of ``src/``.
EDITED = os.path.join("repro", "obs", "metrics.py")


def _lint(src, cache_dir):
    t0 = time.perf_counter()
    result = lint_paths([src], cache_dir=cache_dir)
    return result, time.perf_counter() - t0


def test_perf_incremental_relint(benchmark, tmp_path, echo):
    """Cold lint populates the cache; the warm re-lint must be >=5x
    faster and byte-identical in findings, and a one-line edit must
    re-analyze exactly the edited file."""
    src = str(tmp_path / "src")
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    cache_dir = str(tmp_path / "lint-cache")

    cold, cold_s = _lint(src, cache_dir)
    assert cold.files_analyzed > 0
    assert not cold.failed, [
        f"{v.path}:{v.line}: {v.rule}" for v in cold.violations
    ]

    warm, warm_s = benchmark.pedantic(
        lambda: _lint(src, cache_dir), rounds=1, iterations=1
    )
    assert warm.files_analyzed == 0
    assert warm.files_reused == cold.files_reused + cold.files_analyzed

    def findings(result):
        return [
            (v.rule, v.path, v.line, v.col, v.message)
            for v in result.violations + result.suppressed
        ]

    assert findings(warm) == findings(cold)

    with open(os.path.join(src, EDITED), "a", encoding="utf-8") as fp:
        fp.write("# one-line edit\n")
    edited, edited_s = _lint(src, cache_dir)
    benchmark.extra_info.update(
        edit_relint_ms=edited_s * 1e3,
        edit_files_analyzed=edited.files_analyzed,
    )
    assert edited.files_analyzed == 1
    assert findings(edited) == findings(cold)

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    echo(
        f"noiselint src: cold {cold_s * 1e3:.0f} ms "
        f"({cold.files_analyzed} analyzed), warm {warm_s * 1e3:.0f} ms "
        f"({warm.files_reused} from cache) -> {speedup:.1f}x; "
        f"after editing {EDITED}: {edited_s * 1e3:.0f} ms "
        f"({edited.files_analyzed} analyzed)"
    )
    record_metric("lint_warm_speedup", speedup)
    assert speedup >= 5.0, f"warm re-lint only {speedup:.1f}x faster"
