"""Dispatch backends: where a batch of RunSpecs actually executes.

:meth:`~repro.exec.plan.SweepPlan.execute` decides *what* runs (dedup,
store lookups, journal); this module decides *where*.  Both execution
paths (a ``ProcessPoolExecutor`` and an in-process loop) sit behind
:class:`DispatchBackend`, a two-method surface — ``execute(specs)``
yields ``(spec, trace, meta, elapsed)`` tuples as specs finish — so a
remote-worker backend (SSH pool, batch scheduler, object store + queue)
becomes a drop-in later: everything a backend exchanges is already plain
bytes.

Failure model: a backend that can no longer make progress (worker died,
pool broke, connection lost) raises :class:`BackendFailure` carrying the
specs it did *not* complete.  :func:`dispatch_with_retry` is the shared
driver loop: it retries the remaining specs with exponential backoff —a
worker death on a big campaign must cost one re-dispatch, not the sweep —
and degrades to :class:`SerialBackend` when retries are exhausted, which
by construction produces bit-identical results.

:class:`FlakyBackend` injects deterministic worker deaths so the retry
and resume paths are testable without killing real processes.
"""

from __future__ import annotations

import json
import time
from abc import ABC, abstractmethod
from typing import Iterator, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro import obs
from repro.exec.spec import RunSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.model import TraceMeta
    from repro.stream.analysis import StreamingAnalysis
    from repro.tracing.ctf import Trace

#: What every backend yields per completed spec.
RunTuple = Tuple[RunSpec, "Trace", "TraceMeta", float]


def execute_spec_serialized(
    spec: RunSpec,
) -> Tuple[bytes, str, float, Optional[str]]:
    """Worker entry point: simulate one spec, return picklable primitives.

    Returns ``(trace_bytes, meta_json, elapsed_seconds, obs_json)``.
    Module-level so it pickles under every multiprocessing start method.
    When obs is enabled (workers inherit the mode through
    :data:`repro.obs.OBS_ENV`), the worker's telemetry for this run is
    drained into ``obs_json`` for the parent to merge — spans keep the
    worker's pid, so a merged chrome export shows per-worker tracks.
    """
    from repro.obs.sampler import maybe_start_worker_sampler

    maybe_start_worker_sampler()
    t0 = time.perf_counter()
    with obs.span("run", workload=spec.workload, seed=spec.seed):
        trace, meta = spec.execute()
    elapsed = time.perf_counter() - t0
    obs_json = json.dumps(obs.drain_snapshot()) if obs.enabled() else None
    return trace.to_bytes(), meta.to_json(), elapsed, obs_json


def execute_spec_streaming(
    spec: RunSpec, **stream_kwargs: object
) -> "StreamingAnalysis":
    """Simulate one spec analyze-while-simulating: packets are analyzed as
    the collection daemon drains them and no full trace is assembled, so
    peak memory stays bounded by the analysis window rather than the trace
    length.  Returns the finished
    :class:`~repro.stream.analysis.StreamingAnalysis`; ``stream_kwargs``
    (``window_ns``, ``quanta``, ``on_chunk``, ...) are forwarded to it.
    """
    workload = spec.build_workload()
    with obs.span("run", workload=spec.workload, seed=spec.seed, stream=True):
        _node, analysis = workload.run_streaming(
            spec.duration_ns,
            seed=spec.seed,
            ncpus=spec.ncpus,
            **stream_kwargs,
        )
    return analysis


class BackendFailure(Exception):
    """A backend died mid-batch; carries the specs still unexecuted."""

    def __init__(self, remaining: Sequence[RunSpec],
                 cause: Optional[str] = None) -> None:
        super().__init__(cause or "dispatch backend failure")
        self.remaining: List[RunSpec] = list(remaining)
        self.cause = cause


class DispatchBackend(ABC):
    """One way of turning a batch of specs into (trace, meta) results."""

    #: Human-readable backend name (summaries, obs labels).
    name = "abstract"
    #: Upper bound on specs executing at once.
    max_workers = 1
    #: True when the last execute() actually crossed a process boundary.
    used_processes = False

    @abstractmethod
    def execute(self, specs: List[RunSpec]) -> Iterator[RunTuple]:
        """Yield ``(spec, trace, meta, elapsed_s)`` per spec, any order.

        Raise :class:`BackendFailure` with the unfinished specs if the
        backend can no longer make progress.
        """

    def describe(self) -> str:
        return self.name


class SerialBackend(DispatchBackend):
    """In-process execution; the bit-identical reference everything else
    falls back to."""

    name = "serial"

    def execute(self, specs: List[RunSpec]) -> Iterator[RunTuple]:
        for spec in specs:
            t0 = time.perf_counter()
            with obs.span("run", workload=spec.workload, seed=spec.seed):
                trace, meta = spec.execute()
            yield spec, trace, meta, time.perf_counter() - t0


class LocalPoolBackend(DispatchBackend):
    """``ProcessPoolExecutor`` fan-out over one machine's cores.

    Workers exchange serialized primitives only (trace bytes + meta
    JSON), never live simulator objects, so fork and spawn behave
    identically.  A broken pool raises :class:`BackendFailure` with
    whatever had not completed — the retry driver re-dispatches it.
    """

    name = "local-pool"

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers

    def describe(self) -> str:
        return f"{self.name}({self.max_workers} workers)"

    def execute(self, specs: List[RunSpec]) -> Iterator[RunTuple]:
        from repro.core.model import TraceMeta
        from repro.tracing.ctf import Trace

        try:
            from concurrent.futures import ProcessPoolExecutor, as_completed
            from concurrent.futures.process import BrokenProcessPool
        except ImportError as exc:  # pragma: no cover - stdlib always has it
            raise BackendFailure(specs, cause=str(exc)) from exc

        self.used_processes = False
        workers = min(self.max_workers, len(specs))
        remaining = set(specs)
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(execute_spec_serialized, spec): spec
                    for spec in specs
                }
                if obs.enabled():
                    obs.gauge("backend.queue_depth").set(len(remaining))
                for future in as_completed(futures):
                    spec = futures[future]
                    trace_bytes, meta_json, elapsed, obs_json = (
                        future.result()
                    )
                    remaining.discard(spec)
                    self.used_processes = True
                    if obs.enabled():
                        obs.gauge("backend.queue_depth").set(len(remaining))
                        obs.counter("backend.completions").inc()
                    if obs_json is not None and obs.enabled():
                        obs.merge_snapshot(json.loads(obs_json))
                    yield (
                        spec,
                        Trace.from_bytes(trace_bytes),
                        TraceMeta.from_json(meta_json),
                        elapsed,
                    )
        except (BrokenProcessPool, OSError, RuntimeError) as exc:
            raise BackendFailure(sorted(remaining), cause=str(exc)) from exc


class FlakyBackend(DispatchBackend):
    """Deterministic fault injection: a backend whose workers "die".

    Wraps an inner backend; the first ``failures`` calls to
    :meth:`execute` complete ``survive`` specs and then raise
    :class:`BackendFailure` for the rest, exactly as a killed worker
    process would.  Purely for tests and chaos drills — it lets the
    retry/resume machinery be exercised without real process murder.
    """

    name = "flaky"

    def __init__(self, inner: Optional[DispatchBackend] = None,
                 failures: int = 1, survive: int = 1) -> None:
        if failures < 0 or survive < 0:
            raise ValueError("failures and survive must be >= 0")
        self.inner = inner or SerialBackend()
        self.failures_left = failures
        self.survive = survive
        self.injected = 0

    def describe(self) -> str:
        return f"{self.name}({self.inner.describe()})"

    @property
    def used_processes(self) -> bool:  # type: ignore[override]
        return self.inner.used_processes

    @property
    def max_workers(self) -> int:  # type: ignore[override]
        return self.inner.max_workers

    def execute(self, specs: List[RunSpec]) -> Iterator[RunTuple]:
        if self.failures_left <= 0:
            yield from self.inner.execute(specs)
            return
        self.failures_left -= 1
        self.injected += 1
        completed = set()
        if self.survive:
            for n, item in enumerate(self.inner.execute(specs), start=1):
                completed.add(item[0])
                yield item
                if n >= self.survive:
                    break
        remaining = [s for s in specs if s not in completed]
        if obs.enabled():
            obs.counter("backend.injected_faults").inc()
        raise BackendFailure(remaining, cause="injected worker death")


def dispatch_with_retry(
    backend: DispatchBackend,
    specs: List[RunSpec],
    *,
    retries: int = 2,
    backoff_s: float = 0.05,
    fallback: Optional[DispatchBackend] = None,
) -> Iterator[RunTuple]:
    """Drive a backend to completion across worker deaths.

    Yields every spec's result exactly once.  On :class:`BackendFailure`
    the unfinished remainder is re-dispatched after an exponentially
    growing pause (``backoff_s * 2**attempt``); once ``retries`` attempts
    are burned, the ``fallback`` backend (default: :class:`SerialBackend`,
    which cannot die) finishes the job.  Results are bit-identical no
    matter which path executed a spec.
    """
    remaining = list(specs)
    attempt = 0
    while remaining:
        completed = set()
        try:
            for item in backend.execute(remaining):
                completed.add(item[0])
                yield item
            return
        except BackendFailure as exc:
            claimed = set(exc.remaining)
            remaining = [
                s for s in remaining
                if s not in completed and s in claimed
            ]
            if obs.enabled():
                obs.counter("backend.worker_deaths").inc()
            if not remaining:
                return
            if attempt >= retries:
                break
            if obs.enabled():
                obs.counter("backend.retries").inc()
            time.sleep(backoff_s * (2 ** attempt))
            attempt += 1
    if remaining:
        if obs.enabled():
            obs.counter("backend.fallback_serial").inc()
        yield from (fallback or SerialBackend()).execute(remaining)
