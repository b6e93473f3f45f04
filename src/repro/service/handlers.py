"""The analysis service's endpoint surface.

Routes (all JSON unless noted)::

    GET  /healthz                       liveness + job counts
    GET  /metrics                       Prometheus exposition (text)
    POST /v1/jobs                       submit a RunSpec  -> 202 + job
    GET  /v1/jobs                       list jobs
    GET  /v1/jobs/<id>                  job status
    GET  /v1/jobs/<id>/result          full analysis payload (done jobs)
    GET  /v1/jobs/<id>/render/<kind>   text/binary renders of a done job
    POST /v1/traces                    stream-analyze an uploaded trace
                                       (optional X-Trace-Meta header
                                       carries the .meta.json sidecar)

Render kinds mirror the batch CLI: ``analyze`` (the ``lttng-noise
analyze`` body, bit-identical), ``report`` (``lttng-noise report``),
``chart`` (largest interruptions), ``timeline`` (ASCII per-CPU trace
view) and ``chrome`` (trace-event JSON for Perfetto).  Renders beyond
``analyze`` re-load the run's trace from the sharded store, so they work
only for spec jobs whose entry has not been evicted — upload jobs keep
no trace by design (that is the memory bound), so they serve ``analyze``
only.

A done job never changes (a spec job's id is its content token), so its
``result`` body and its renders are memoized: one LRU of finished 200
responses keyed by ``(job id, kind, params)`` and bounded by
:data:`MEMO_BYTES` of body.  A repeated GET is answered on the event
loop with the first response's bytes — also after the store evicted the
run, since those bytes cannot change.

Every request runs under an ``obs`` span with a method+route counter and
a latency histogram, and the job table publishes ``service.*`` gauges —
``GET /metrics`` exposes the server's own behaviour through the same
telemetry stack the pipeline uses for itself.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple

from repro import obs
from repro.exec.spec import RunSpec, resolve_factory
from repro.exec.store import ShardedStore
from repro.service.http import HttpError, HttpServer, Request, Response
from repro.service.jobs import JOB_DONE, JOB_FAILED, Job, JobTable

#: Render kinds served under ``/v1/jobs/<id>/render/<kind>``.
RENDER_KINDS = ("analyze", "report", "chart", "timeline", "chrome")

#: Body bytes the response memo holds at most; a larger body is served
#: but not kept.
MEMO_BYTES = 8 << 20


def _parse_spec(body: bytes) -> RunSpec:
    """Decode and *validate* a submitted spec; HttpError 400 on any
    problem so a bad submit never becomes a failed job."""
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HttpError(400, f"body is not JSON: {exc}")
    if not isinstance(data, dict):
        raise HttpError(400, "spec body must be a JSON object")
    for field in ("workload", "duration_ns", "seed"):
        if field not in data:
            raise HttpError(400, f"spec is missing {field!r}")
    try:
        spec = RunSpec.from_dict(data)
    except (TypeError, ValueError, KeyError) as exc:
        raise HttpError(400, f"malformed spec: {exc}")
    if spec.duration_ns <= 0:
        raise HttpError(400, "duration_ns must be positive")
    if spec.ncpus < 1:
        raise HttpError(400, "ncpus must be >= 1")
    try:
        resolve_factory(spec.workload)
    except ValueError as exc:
        raise HttpError(400, str(exc))
    return spec


def _int_query(request: Request, name: str, default: int,
               minimum: int = 1, maximum: Optional[int] = None) -> int:
    raw = request.query.get(name)
    if raw is None or raw == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        raise HttpError(400, f"query parameter {name!r} must be an integer")
    if value < minimum:
        raise HttpError(400, f"query parameter {name!r} must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise HttpError(400, f"query parameter {name!r} must be <= {maximum}")
    return value


def _render_params(kind: str, request: Request) -> Tuple[int, ...]:
    """The validated query of a render: ``(top,)`` for ``chart``,
    ``(width,)`` for ``timeline``, ``()`` for the other kinds."""
    if kind == "chart":
        return (_int_query(request, "top", 20),)
    if kind == "timeline":
        from repro.core.report import MAX_TIMELINE_WIDTH

        return (_int_query(
            request, "width", 100, maximum=MAX_TIMELINE_WIDTH
        ),)
    return ()


class ResponseMemo:
    """Least-recently-used finished 200 responses of done jobs, at most
    :data:`MEMO_BYTES` of body in all.  Only the event loop touches it,
    so it takes no lock."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[Hashable, Response]" = OrderedDict()
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[Response]:
        response = self._entries.get(key)
        if response is not None:
            self._entries.move_to_end(key)
        if obs.enabled():
            outcome = "miss" if response is None else "hit"
            obs.counter("service.memo", outcome=outcome).inc()
        return response

    def put(self, key: Hashable, response: Response) -> None:
        size = len(response.body)
        if response.status != 200 or size > MEMO_BYTES:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self.nbytes -= len(old.body)
        while self._entries and self.nbytes + size > MEMO_BYTES:
            _, evicted = self._entries.popitem(last=False)
            self.nbytes -= len(evicted.body)
        self._entries[key] = response
        self.nbytes += size


class ServiceApp:
    """Routing + handlers over one :class:`JobTable`."""

    def __init__(self, table: JobTable) -> None:
        self.table = table
        self.started_mono = time.monotonic()
        self.memo = ResponseMemo()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    async def handle(self, request: Request) -> Response:
        route = self._route_label(request.path)
        with obs.span("service.request", method=request.method, route=route):
            t0 = time.perf_counter()
            try:
                response = await self._dispatch(request)
            except HttpError as exc:
                response = Response.json(
                    {"error": exc.message, "status": exc.status},
                    status=exc.status,
                )
            if obs.enabled():
                obs.counter(
                    "service.requests",
                    method=request.method,
                    route=route,
                    status=str(response.status),
                ).inc()
                obs.histogram("service.request_ms").observe(
                    (time.perf_counter() - t0) * 1e3
                )
            return response

    @staticmethod
    def _route_label(path: str) -> str:
        """Collapse job ids out of the path so label cardinality stays
        bounded: ``/v1/jobs/abc123/result`` -> ``/v1/jobs/{id}/result``."""
        parts = path.strip("/").split("/")
        if len(parts) >= 3 and parts[:2] == ["v1", "jobs"]:
            parts[2] = "{id}"
        return "/" + "/".join(parts)

    async def _dispatch(self, request: Request) -> Response:
        path, method = request.path, request.method
        if path == "/healthz":
            return self._healthz()
        if path == "/metrics":
            return self._metrics()
        if path == "/v1/jobs":
            if method == "POST":
                return await self._submit(request)
            if method == "GET":
                return self._list_jobs()
            raise HttpError(405, f"{method} not allowed on {path}")
        if path == "/v1/traces":
            if method != "POST":
                raise HttpError(405, f"{method} not allowed on {path}")
            return await self._upload(request)
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                raise HttpError(405, f"{method} not allowed on {path}")
            return await self._job_subresource(request)
        raise HttpError(404, f"no route for {path}")

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _healthz(self) -> Response:
        return Response.json({
            "status": "ok",
            "uptime_s": round(time.monotonic() - self.started_mono, 3),
            "jobs": self.table.counts(),
            "submitted": self.table.submitted,
            "deduped": self.table.deduped,
            "cache": {
                "hits": self.table.store.hits,
                "misses": self.table.store.misses,
            },
        })

    def _metrics(self) -> Response:
        from repro.obs.export import prometheus_text

        if not obs.enabled():
            return Response.text(
                "# obs disabled; start the server with --obs\n",
                content_type="text/plain; version=0.0.4",
            )
        return Response.text(
            prometheus_text(obs.snapshot()),
            content_type="text/plain; version=0.0.4",
        )

    async def _submit(self, request: Request) -> Response:
        spec = _parse_spec(await request.body())
        job, created = self.table.submit_spec(spec)
        return Response.json(
            {"job": job.describe(), "created": created},
            status=202 if created else 200,
        )

    def _list_jobs(self) -> Response:
        return Response.json({
            "jobs": [job.describe() for job in self.table.list_jobs()],
            "counts": self.table.counts(),
        })

    async def _upload(self, request: Request) -> Response:
        if not request.has_body:
            raise HttpError(400, "trace upload needs a request body")
        meta = self._upload_meta(request)
        job = await self.table.run_upload(request.chunks(), meta=meta)
        if job.state == JOB_FAILED:
            # The stream was consumed; a broken trace is the client's 400.
            return Response.json(
                {"job": job.describe(), "error": job.error}, status=400
            )
        return Response.json({"job": job.describe(), "result": job.result})

    @staticmethod
    def _upload_meta(request: Request) -> Optional[Any]:
        """The trace's :class:`TraceMeta`, when the client sent its
        ``.meta.json`` sidecar along in the ``X-Trace-Meta`` header.
        Without it the analysis falls back to a default meta, which
        cannot classify preemptions — same as batch ``analyze`` on a
        sidecar-less trace."""
        raw = request.headers.get("x-trace-meta")
        if raw is None or not raw.strip():
            return None
        from repro.core import TraceMeta

        try:
            return TraceMeta.from_json(raw)
        except (ValueError, KeyError, TypeError) as exc:
            raise HttpError(400, f"malformed X-Trace-Meta: {exc}")

    async def _job_subresource(self, request: Request) -> Response:
        parts = request.path.strip("/").split("/")  # v1 jobs <id> [sub...]
        job = self.table.get(parts[2])
        if job is None:
            raise HttpError(404, f"no job {parts[2]!r}")
        rest = parts[3:]
        if not rest:
            return Response.json({"job": job.describe()})
        if rest == ["result"]:
            return self._result(job)
        if len(rest) == 2 and rest[0] == "render":
            return await self._render(job, rest[1], request)
        raise HttpError(404, f"no route for {request.path}")

    def _result(self, job: Job) -> Response:
        if job.state == JOB_FAILED:
            return Response.json(
                {"job": job.describe(), "error": job.error}, status=500
            )
        if job.state != JOB_DONE:
            raise HttpError(409, f"job is {job.state}; poll until done")
        key = (job.id, "result", ())
        response = self.memo.get(key)
        if response is None:
            response = Response.json(
                {"job": job.describe(), "result": job.result}
            )
            self.memo.put(key, response)
        return response

    # ------------------------------------------------------------------
    # Renders
    # ------------------------------------------------------------------
    async def _render(self, job: Job, kind: str, request: Request) -> Response:
        if kind not in RENDER_KINDS:
            raise HttpError(
                404, f"unknown render {kind!r}; one of {RENDER_KINDS}"
            )
        if job.state != JOB_DONE:
            raise HttpError(409, f"job is {job.state}; poll until done")
        if kind == "analyze":
            assert job.result is not None
            return Response.text(job.result["analyze_text"] + "\n")
        if job.kind != "spec":
            raise HttpError(
                400,
                "upload jobs retain no trace (streaming analysis is the "
                "memory bound); only the 'analyze' render is available",
            )
        params = _render_params(kind, request)
        key = (job.id, kind, params)
        response = self.memo.get(key)
        if response is None:
            # Store reads, NoiseAnalysis and report rendering are CPU/disk
            # bound — run them off the loop so one big render can't stall
            # every other connection's heartbeat.
            loop = asyncio.get_running_loop()
            response = await loop.run_in_executor(
                None, self._render_job, job, kind, params
            )
            self.memo.put(key, response)
        return response

    def _render_job(self, job: Job, kind: str,
                    params: Tuple[int, ...]) -> Response:
        loaded = self.table.load_run(job)
        if loaded is None:
            raise HttpError(
                404, "the run's store entry was evicted; re-submit the spec"
            )
        trace, meta = loaded
        return self._render_trace(job, kind, trace, meta, params)

    def _render_trace(self, job: Job, kind: str, trace: Any, meta: Any,
                      params: Tuple[int, ...]) -> Response:
        from repro.core import NoiseAnalysis

        analysis = NoiseAnalysis(trace, meta=meta)
        if kind == "report":
            from repro.core.report import full_report

            return Response.text(full_report(analysis, meta=meta) + "\n")
        if kind == "chart":
            from repro.core import SyntheticNoiseChart
            from repro.core.report import render_chart

            chart = SyntheticNoiseChart(analysis)
            return Response.text(render_chart(chart, *params) + "\n")
        if kind == "timeline":
            from repro.core.report import render_timeline

            return Response.text(render_timeline(analysis, *params) + "\n")
        # kind == "chrome"
        from repro.io.chrometrace import analysis_trace_events
        from repro.obs.export import trace_event_json

        return Response(
            200, trace_event_json(analysis_trace_events(analysis)).encode(),
            content_type="application/json",
            headers={
                "Content-Disposition":
                    f'attachment; filename="{job.id[:12]}.chrome.json"'
            },
        )


async def run_server(
    host: str = "127.0.0.1",
    port: int = 0,
    store_root: Optional[str] = None,
    max_concurrency: int = 4,
    max_store_bytes: Optional[int] = None,
    use_pool: bool = True,
    ready: Optional[asyncio.Event] = None,
    install_signals: bool = True,
    announce=None,
) -> Tuple[int, Dict[str, Any]]:
    """Run the service until SIGTERM/SIGINT, then drain gracefully.

    Drain order matters for the zero-lost-jobs guarantee: stop accepting
    connections and finish in-flight requests first (every accepted
    submit lands in the job table), then wait for the job table to run
    everything it holds to a terminal state.  Returns ``(served,
    counts)`` for the CLI's exit report.
    """
    import tempfile

    own_root = store_root is None
    if own_root:
        store_root = tempfile.mkdtemp(prefix="lttng-noise-svc-")  # noiselint: disable=ASY001 -- one-time startup, before the listener accepts
    store = ShardedStore(store_root, max_bytes=max_store_bytes)
    table = JobTable(
        store, max_concurrency=max_concurrency, use_pool=use_pool
    )
    app = ServiceApp(table)
    server = HttpServer(app.handle, host=host, port=port)
    await server.start()

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    if install_signals:
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
    if announce is not None:
        announce(server)
    if ready is not None:
        ready.set()
    try:
        await stop.wait()
        await server.drain()
        await table.drain()
    finally:
        if install_signals:
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.remove_signal_handler(sig)
        table.close()
    return server.requests_served, table.counts()
