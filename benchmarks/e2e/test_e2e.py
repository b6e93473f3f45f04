"""Tests of the end-to-end benchmark, plus a pinned service defect.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.exec import LocalPoolBackend, RunSpec
from repro.util.units import MSEC

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_quick_run(workload: str, trace: int) -> None:
    """Each workload, in its own process so this session's obs state
    cannot leak in, prints every metric of its kind with its unit and
    passes its golden digest and self-checks."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("LTTNG_NOISE_OBS")}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--quick", "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    printed = {
        parts[0]: parts[2]
        for parts in (line.split() for line in lines[:-1])
        if len(parts) == 3 and not parts[0].startswith("#")
    }
    for metric in expected:
        assert printed[metric["name"]] == metric["unit"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert "ops_failed 0" in lines
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "pool-mode obs doubling: a forked LocalPoolBackend worker inherits "
        "the parent's obs registry and drains all of it back "
        "(execute_spec_serialized), and the parent merges it in again "
        "(LocalPoolBackend.execute), so each dispatch doubles the registry"
    ),
)
def test_pool_dispatch_keeps_obs_registry_bounded() -> None:
    spec = RunSpec.make("FTQ", 20 * MSEC, 0, 1)
    was_enabled = obs.enabled()
    obs.enable()
    obs.reset()
    try:
        sizes = [len(json.dumps(obs.snapshot()))]
        for _ in range(8):
            list(LocalPoolBackend(1).execute([spec]))
            sizes.append(len(json.dumps(obs.snapshot())))
    finally:
        obs.reset()
        if not was_enabled:
            obs.disable()
    growth = [after - before for before, after in zip(sizes, sizes[1:])]
    # Each dispatch adds the telemetry of one run; a registry that is
    # merged back into itself grows geometrically instead.
    assert growth[-1] <= 2 * growth[0], sizes
