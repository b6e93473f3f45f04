"""Shared benchmark infrastructure.

Every bench regenerates one of the paper's tables or figures.  Simulated
executions are deterministic and cached twice: in memory for the session
(as before) and on disk through :class:`repro.exec.ShardedStore`, so a
second benchmark invocation skips simulation entirely.  Set
``LTTNG_NOISE_BENCH_CACHE`` to a directory to relocate the disk cache, or
to ``off`` to disable it (always re-simulate).

Each bench then measures (via pytest-benchmark) the analysis step it
exercises and prints the paper's rows next to the measured ones.

Run with ``pytest benchmarks/ --benchmark-only`` — add ``-s`` to also see
the printed tables live.

Benchmarks run with the observability layer (:mod:`repro.obs`) enabled;
:func:`once` attaches the telemetry collected during the measured call to
the benchmark's ``extra_info`` so ``--benchmark-json`` output carries the
pipeline's own counters and phase timings alongside the wall numbers.
"""

from __future__ import annotations

import os
from typing import Optional

import pytest

from repro import obs
from repro.core import NoiseAnalysis, TraceMeta
from repro.exec import RunSpec, ShardedStore
from repro.util.units import MSEC, SEC

#: Simulated run length for the Sequoia case study (the paper ran minutes;
#: shape converges well before that and wall time stays reasonable).
CASE_STUDY_NS = 2500 * MSEC
SEED = 42


def _disk_cache() -> Optional[ShardedStore]:
    env = os.environ.get("LTTNG_NOISE_BENCH_CACHE", "")
    if env.lower() in ("off", "0", "no", "false"):
        return None
    return ShardedStore(env or None)


class RunCache:
    """Lazily simulate + analyze each workload once per session.

    Each entry is ``(node, trace, meta, analysis)``.  On a disk-cache hit
    the run is *not* re-simulated, so ``node`` is None — benches that poke
    live simulator state must handle that (the figure/table content itself
    only needs trace + meta).
    """

    def __init__(self, disk: Optional[ShardedStore] = None) -> None:
        self._runs = {}
        self.disk = disk if disk is not None else _disk_cache()

    def _get(self, key, spec: RunSpec):
        if key not in self._runs:
            node = None
            hit = self.disk.get(spec) if self.disk is not None else None
            if hit is not None:
                trace, meta = hit
            else:
                workload = spec.build_workload()
                node, trace = workload.run_traced(
                    spec.duration_ns, seed=spec.seed, ncpus=spec.ncpus
                )
                meta = TraceMeta.from_node(node)
                if self.disk is not None:
                    self.disk.put(spec, trace, meta)
            self._runs[key] = (
                node,
                trace,
                meta,
                NoiseAnalysis(trace, meta=meta),
            )
        return self._runs[key]

    def sequoia(self, name: str):
        return self._get(
            ("seq", name), RunSpec.make(name, CASE_STUDY_NS, SEED, 8)
        )

    def ftq(self, duration_ns=3 * SEC):
        return self._get(
            ("ftq", duration_ns), RunSpec.make("FTQ", duration_ns, SEED, 2)
        )


@pytest.fixture(scope="session", autouse=True)
def _observe_benchmarks():
    """Collect pipeline self-telemetry for the whole benchmark session."""
    obs.enable()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="session")
def runs():
    return RunCache()


@pytest.fixture
def echo(capsys):
    """Print through pytest's capture so tables reach the terminal."""

    def _echo(text: str) -> None:
        with capsys.disabled():
            print(text)

    return _echo


def once(benchmark, fn):
    """Benchmark an expensive pipeline stage exactly once and return its
    result (analysis steps are deterministic; repetition adds nothing).

    The telemetry the stage produced (spans, counters) rides along in the
    benchmark's ``extra_info`` — visible in ``--benchmark-json`` output.
    """
    if obs.enabled():
        obs.drain_snapshot()  # start the measured call with a clean slate
    result = benchmark.pedantic(fn, rounds=1, iterations=1)
    if obs.enabled():
        benchmark.extra_info["obs"] = obs.aggregate(obs.drain_snapshot())
    return result
