"""Service job table: content-hash keys, bounded concurrency, dedup.

A *job* is one unit of analysis work the server owes a client: either a
:class:`~repro.exec.spec.RunSpec` to simulate-and-analyze, or a raw
trace upload to analyze while it streams in.  Jobs move
``queued → running → done`` (or ``failed``) and never leave the table,
so clients can poll and re-fetch results for the server's lifetime.

Dedup is identity, not policy: a spec job's id *is* its store token
(:meth:`~repro.exec.store.ShardedStore.token` — the version-salted
content hash), so two clients submitting identical specs share one job
and one execution, and a re-submitted spec after completion finds its
finished job already in the table.  The :class:`ShardedStore` is the
cross-request (and cross-*process*) cache: a spec job is a one-spec
:meth:`~repro.exec.plan.SweepPlan.execute` over a
:class:`~repro.exec.backend.DispatchBackend` and the store — the same
path a sweep takes: a store hit is served, a cold run is dispatched
(worker death degrades to in-process serial, bit-identical) and put back
so the next request — or the next server — hits.

Concurrency is an :class:`asyncio.Semaphore` over a thread pool: the
event loop never blocks on simulation, and at most ``max_concurrency``
analyses run at once; everything else queues (visible as the
``service.queue_depth`` gauge).  Trace uploads run the streaming
analyzer on a worker thread fed through a bounded queue, so a fast
uploader is backpressured by the analyzer and peak memory stays bounded
by the per-CPU packets the analyzer buffers behind its watermark, not by
the trace size.
"""

from __future__ import annotations

import asyncio
import queue
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Dict, List, Optional, Tuple

from repro import obs
from repro.exec.backend import DispatchBackend, LocalPoolBackend, SerialBackend
from repro.exec.plan import SweepPlan
from repro.exec.spec import RunSpec
from repro.exec.store import ShardedStore

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"

#: Pieces a streaming upload buffers between the socket and the analyzer
#: thread; small, so backpressure reaches the client quickly.
UPLOAD_QUEUE_PIECES = 8


def analysis_payload(analysis: Any) -> Dict[str, Any]:
    """The JSON result body for one finished analysis.

    Works on both the batch :class:`~repro.core.analysis.NoiseAnalysis`
    and a finished :class:`~repro.stream.analysis.StreamingAnalysis`
    (same query surface).  ``analyze_text`` is rendered through
    :func:`~repro.core.report.render_analysis_summary`, the exact
    formatter the ``lttng-noise analyze`` CLI prints — service responses
    are bit-identical to the batch CLI by construction.
    """
    from repro.core.report import analysis_json, render_analysis_summary

    payload = analysis_json(analysis)
    payload["per_cpu_noise_ns"] = [
        int(v) for v in analysis.per_cpu_noise_ns()
    ]
    payload["analyze_text"] = render_analysis_summary(analysis)
    return payload


@dataclass
class Job:
    """One unit of analysis work and its lifecycle record."""

    id: str
    kind: str  # "spec" | "trace"
    state: str = JOB_QUEUED
    spec: Optional[RunSpec] = None
    cached: Optional[bool] = None
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    elapsed_s: float = 0.0
    created_mono_ns: int = field(default_factory=time.monotonic_ns)
    finished_mono_ns: Optional[int] = None

    def describe(self) -> Dict[str, Any]:
        """The public (result-free) JSON shape for status endpoints."""
        out: Dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "cached": self.cached,
            "elapsed_s": round(self.elapsed_s, 6),
        }
        if self.spec is not None:
            out["spec"] = self.spec.to_dict()
        if self.error is not None:
            out["error"] = self.error
        return out


def _feed(q: "queue.Queue[Optional[bytes]]", done, piece: Optional[bytes],
          timeout_s: float = 0.05) -> bool:
    """Blocking bounded put that gives up once the consumer is gone."""
    while True:
        if done():
            return False
        try:
            q.put(piece, timeout=timeout_s)
            return True
        except queue.Full:
            continue


class JobTable:
    """All jobs the server knows, plus the machinery that runs them."""

    def __init__(
        self,
        store: ShardedStore,
        max_concurrency: int = 4,
        use_pool: bool = True,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        self.store = store
        self.max_concurrency = max_concurrency
        self.use_pool = use_pool
        self.jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._sem = asyncio.Semaphore(max_concurrency)
        # +1 thread so upload feeds never deadlock behind busy analyzers.
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrency + 1, thread_name_prefix="svc-job"
        )
        self._tasks: "set[asyncio.Task[None]]" = set()
        self._uploads = 0
        self.submitted = 0
        self.deduped = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def list_jobs(self) -> List[Job]:
        return [self.jobs[job_id] for job_id in self._order]

    def counts(self) -> Dict[str, int]:
        out = {JOB_QUEUED: 0, JOB_RUNNING: 0, JOB_DONE: 0, JOB_FAILED: 0}
        for job in self.jobs.values():
            out[job.state] += 1
        return out

    def _publish_gauges(self) -> None:
        if not obs.enabled():
            return
        counts = self.counts()
        obs.gauge("service.queue_depth").set(counts[JOB_QUEUED])
        obs.gauge("service.active_jobs").set(counts[JOB_RUNNING])
        lookups = self.store.hits + self.store.misses
        if lookups:
            obs.gauge("service.cache_hit_ratio").set(
                self.store.hits / lookups
            )

    # ------------------------------------------------------------------
    # Spec jobs
    # ------------------------------------------------------------------
    def submit_spec(self, spec: RunSpec) -> Tuple[Job, bool]:
        """Enqueue a spec; identical specs share one job (idempotent).

        Returns ``(job, created)`` — ``created`` is False when the spec
        deduped onto an existing job in any state.
        """
        token = self.store.token(spec)
        existing = self.jobs.get(token)
        if existing is not None:
            self.deduped += 1
            if obs.enabled():
                obs.counter("service.jobs_deduped").inc()
            return existing, False
        job = Job(id=token, kind="spec", spec=spec)
        self.jobs[token] = job
        self._order.append(token)
        self.submitted += 1
        if obs.enabled():
            obs.counter("service.jobs_submitted").inc()
        task = asyncio.get_running_loop().create_task(self._run_spec(job))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        self._publish_gauges()
        return job, True

    async def _run_spec(self, job: Job) -> None:
        async with self._sem:
            job.state = JOB_RUNNING
            self._publish_gauges()
            loop = asyncio.get_running_loop()
            try:
                assert job.spec is not None
                result, cached, elapsed = await loop.run_in_executor(
                    self._executor, self._execute_spec, job.spec
                )
                job.result = result
                job.cached = cached
                job.elapsed_s = elapsed
                job.state = JOB_DONE
            except Exception as exc:  # job failures are data, not crashes
                job.error = f"{type(exc).__name__}: {exc}"
                job.state = JOB_FAILED
                if obs.enabled():
                    obs.counter("service.jobs_failed").inc()
            finally:
                job.finished_mono_ns = time.monotonic_ns()
                self._publish_gauges()

    def _execute_spec(
        self, spec: RunSpec
    ) -> Tuple[Dict[str, Any], bool, float]:
        """Worker-thread body: store hit, or cold run through a backend."""
        from repro.core.analysis import NoiseAnalysis

        with obs.span("service.job", workload=spec.workload,
                      seed=spec.seed):
            t0 = time.perf_counter()
            (run,) = SweepPlan([spec]).execute(
                self._make_backend(), self.store
            )
            payload = analysis_payload(NoiseAnalysis(run.trace, meta=run.meta))
            return payload, run.cached, time.perf_counter() - t0

    def _make_backend(self) -> DispatchBackend:
        """A fresh backend per cold run: process isolation without a
        long-lived pool to babysit (retry degrades to serial)."""
        if self.use_pool:
            return LocalPoolBackend(1)
        return SerialBackend()

    def load_run(self, job: Job) -> Optional[Tuple[Any, Any]]:
        """The stored ``(trace, meta)`` behind a done spec job, or None
        when the store has since evicted it."""
        if job.spec is None:
            return None
        return self.store.get(job.spec)

    # ------------------------------------------------------------------
    # Trace-upload jobs
    # ------------------------------------------------------------------
    async def run_upload(
        self,
        pieces: AsyncIterator[bytes],
        meta: Optional[Any] = None,
    ) -> Job:
        """Analyze a trace as its bytes arrive; returns the finished job.

        The analyzer runs :meth:`StreamingAnalysis.from_byte_stream` on a
        worker thread, fed through a bounded queue: the async side awaits
        each put, so the socket is only read as fast as the analyzer
        drains — memory stays bounded by the per-CPU packets each analyzer
        buffers behind its watermark, under any number of concurrent
        uploads.
        """
        self._uploads += 1
        job = Job(id=f"upload-{self._uploads:06d}", kind="trace")
        self.jobs[job.id] = job
        self._order.append(job.id)
        self.submitted += 1
        if obs.enabled():
            obs.counter("service.jobs_submitted").inc()
        async with self._sem:
            job.state = JOB_RUNNING
            self._publish_gauges()
            q: "queue.Queue[Optional[bytes]]" = queue.Queue(
                maxsize=UPLOAD_QUEUE_PIECES
            )
            loop = asyncio.get_running_loop()
            future = loop.run_in_executor(
                self._executor, self._analyze_stream, q, meta
            )
            # A transport failure (truncated/oversized body) must not be
            # swallowed into the job: note it, still drain the analyzer
            # (its exception has to be retrieved either way), and re-raise
            # so the handler can answer with the right HTTP status.
            transport_error: Optional[BaseException] = None
            try:
                async for piece in pieces:
                    if not await loop.run_in_executor(
                        None, _feed, q, future.done, piece
                    ):
                        break  # analyzer died; surface its error below
            except BaseException as exc:
                transport_error = exc
            finally:
                await loop.run_in_executor(None, _feed, q, future.done,
                                           None)
            try:
                analysis = await future
            except asyncio.CancelledError:
                job.error = "cancelled"
                job.state = JOB_FAILED
                raise
            except Exception as exc:
                self._fail(job, transport_error or exc)
                if transport_error is not None:
                    raise transport_error
            else:
                if transport_error is not None:
                    self._fail(job, transport_error)
                    raise transport_error
                job.result = analysis_payload(analysis)
                job.cached = False
                job.state = JOB_DONE
            finally:
                job.finished_mono_ns = time.monotonic_ns()
                job.elapsed_s = (
                    job.finished_mono_ns - job.created_mono_ns
                ) / 1e9
                self._publish_gauges()
        return job

    @staticmethod
    def _fail(job: Job, exc: BaseException) -> None:
        job.error = f"{type(exc).__name__}: {exc}"
        job.state = JOB_FAILED
        if obs.enabled():
            obs.counter("service.jobs_failed").inc()

    def _analyze_stream(
        self, q: "queue.Queue[Optional[bytes]]", meta: Optional[Any] = None,
    ) -> Any:
        """Worker-thread body: pull byte pieces until the None sentinel."""
        from repro.stream.analysis import StreamingAnalysis

        def gen():
            while True:
                piece = q.get()
                if piece is None:
                    return
                yield piece

        with obs.span("service.upload"):
            return StreamingAnalysis.from_byte_stream(gen(), meta=meta)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Wait until every queued/running spec job reached a terminal
        state (uploads complete with their request)."""
        while self._tasks:
            await asyncio.gather(*list(self._tasks),
                                 return_exceptions=True)
        self._publish_gauges()

    def close(self) -> None:
        self._executor.shutdown(wait=False)
