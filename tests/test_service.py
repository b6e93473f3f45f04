"""Tests for the analysis service (repro.service).

The service is exercised over real sockets: a fixture runs the asyncio
server on a background thread and tests talk to it with the stdlib
:class:`~repro.service.client.ServiceClient` — the same path the
``lttng-noise submit`` subcommand and any third-party client take.

Covers: the submit → poll → result happy path; duplicate-spec dedup
under concurrent clients; bit-identical parity between service renders
and the batch CLI; streaming trace-upload parity with batch analysis;
400/404/405/409/413 error paths; the memo of done jobs' responses;
Prometheus ``/metrics`` exposition; and graceful drain (no queued or
running jobs survive shutdown, including over a real SIGTERM against a
``lttng-noise serve`` subprocess).
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro import obs
from repro.exec.spec import RunSpec
from repro.exec.store import ShardedStore
from repro.service.client import ServiceClient, ServiceError
from repro.service.handlers import ServiceApp
from repro.service.http import HttpServer, parse_hostport
from repro.service.jobs import JobTable
from repro.util.units import MSEC

SHORT = 50 * MSEC


def spec(seed=0, **kw):
    return RunSpec.make("FTQ", SHORT, seed, 2, **kw)


class ServerHandle:
    """One service instance on a background thread, plus its innards."""

    def __init__(self, port, app, server, stop, loop, thread):
        self.port = port
        self.app = app
        self.table = app.table
        self.server = server
        self._stop = stop
        self._loop = loop
        self._thread = thread

    def client(self, timeout_s=30.0) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, timeout_s=timeout_s)

    def shutdown(self) -> None:
        """Trigger the drain path and wait for the server thread."""
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)
        assert not self._thread.is_alive(), "server failed to drain"


def start_server(store_root, max_concurrency=4, max_body_bytes=None,
                 use_pool=False) -> ServerHandle:
    """Run the service in a thread; in-process backend keeps tests fast
    (results are bit-identical to the pool path by construction)."""
    ready = threading.Event()
    box = {}

    async def main():
        kwargs = {}
        if max_body_bytes is not None:
            kwargs["max_body_bytes"] = max_body_bytes
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        table = JobTable(ShardedStore(store_root),
                         max_concurrency=max_concurrency,
                         use_pool=use_pool)
        app = ServiceApp(table)
        server = HttpServer(app.handle, port=0, **kwargs)
        await server.start()
        box.update(port=server.port, app=app, server=server,
                   stop=stop, loop=loop)
        ready.set()
        await stop.wait()
        await server.drain()
        await table.drain()
        table.close()

    thread = threading.Thread(target=lambda: asyncio.run(main()),
                              daemon=True)
    thread.start()
    assert ready.wait(timeout=30), "server did not start"
    return ServerHandle(box["port"], box["app"], box["server"],
                        box["stop"], box["loop"], thread)


@pytest.fixture()
def server(tmp_path):
    obs.enable()
    handle = start_server(str(tmp_path / "store"))
    yield handle
    handle.shutdown()
    obs.disable()
    obs.reset()


# ----------------------------------------------------------------------
# Happy path
# ----------------------------------------------------------------------

class TestSubmitPollResult:
    def test_submit_poll_result_roundtrip(self, server):
        with server.client() as client:
            health = client.healthz()
            assert health["status"] == "ok"
            submitted = client.submit(spec())
            assert submitted["created"] is True
            job = submitted["job"]
            assert job["state"] in ("queued", "running", "done")
            final = client.wait(job["id"])
            assert final["state"] == "done"
            assert final["cached"] is False  # cold store: a real run
            result = client.result(job["id"])["result"]
            assert result["span_ns"] > 0
            assert result["ncpus"] == 2
            assert 0 < result["noise_fraction"] < 1
            assert set(result["breakdown"])  # categories present
            assert result["analyze_text"].startswith("span ")

    def test_job_id_is_the_store_token(self, server):
        """Dedup is identity: the job id doubles as the cache key, so a
        client can predict it from the spec alone."""
        with server.client() as client:
            job = client.submit(spec())["job"]
            assert job["id"] == server.table.store.token(spec())

    def test_result_before_done_is_409_style(self, server):
        """A job that is not done yet answers 409, not a broken body."""
        with server.client() as client:
            job = client.submit(spec(seed=5))["job"]
            try:
                client.result(job["id"])
            except ServiceError as exc:
                assert exc.status == 409
            else:  # the tiny job may already have finished: also fine
                assert client.status(job["id"])["job"]["state"] == "done"

    def test_warm_store_serves_cache_hit(self, tmp_path):
        """A fresh server over an already-populated store answers from
        the store: cached=True, no re-simulation."""
        obs.enable()
        try:
            root = str(tmp_path / "store")
            first = start_server(root)
            try:
                with first.client() as client:
                    job = client.submit(spec())["job"]
                    client.wait(job["id"])
            finally:
                first.shutdown()
            second = start_server(root)
            try:
                with second.client() as client:
                    job = client.submit(spec())["job"]
                    final = client.wait(job["id"])
                    assert final["state"] == "done"
                    assert final["cached"] is True
            finally:
                second.shutdown()
        finally:
            obs.disable()
            obs.reset()


# ----------------------------------------------------------------------
# Dedup under concurrency
# ----------------------------------------------------------------------

class TestDedup:
    def test_resubmit_dedups_onto_the_finished_job(self, server):
        with server.client() as client:
            first = client.submit(spec())
            client.wait(first["job"]["id"])
            again = client.submit(spec())
            assert again["created"] is False
            assert again["job"]["id"] == first["job"]["id"]
            # kwargs order must not defeat dedup (canonical spec hash).
            reordered = {
                "workload": "FTQ", "duration_ns": SHORT, "seed": 0,
                "ncpus": 2,
            }
            assert client.submit(reordered)["created"] is False

    def test_eight_concurrent_clients_share_one_execution(self, server):
        """Eight clients race the same spec; exactly one execution
        happens and every client reads the identical result."""
        n = 8
        barrier = threading.Barrier(n)
        outcomes = []
        errors = []

        def one_client(i):
            try:
                with server.client() as client:
                    barrier.wait()
                    submitted = client.submit(spec(seed=9))
                    client.wait(submitted["job"]["id"])
                    result = client.result(submitted["job"]["id"])
                    outcomes.append(
                        (submitted["created"],
                         result["result"]["analyze_text"])
                    )
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)

        threads = [threading.Thread(target=one_client, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(outcomes) == n
        assert sum(1 for created, _ in outcomes if created) == 1
        texts = {text for _, text in outcomes}
        assert len(texts) == 1  # everyone saw the same analysis
        counts = server.table.counts()
        assert counts["done"] == 1 and counts["failed"] == 0


# ----------------------------------------------------------------------
# Batch parity
# ----------------------------------------------------------------------

class TestBatchParity:
    def test_render_analyze_is_bit_identical_to_batch(self, server):
        """The service's analyze render equals the ``lttng-noise
        analyze`` stdout body for the same run, byte for byte."""
        from repro.core import NoiseAnalysis
        from repro.core.report import render_analysis_summary

        s = spec()
        trace, meta = s.execute()
        expected = render_analysis_summary(NoiseAnalysis(trace, meta=meta))
        with server.client() as client:
            job = client.submit(s)["job"]
            client.wait(job["id"])
            assert client.render(job["id"], "analyze") == expected + "\n"

    def test_render_report_is_the_cli_report_stdout(self, server, tmp_path,
                                                    capsys):
        """The service's report render equals ``lttng-noise report``
        stdout for the same run, byte for byte."""
        from repro.cli import main

        base = str(tmp_path / "ftq")
        assert main(["record", "FTQ", "--duration", "50ms", "--seed", "3",
                     "--ncpus", "2", "-o", base]) == 0
        capsys.readouterr()
        assert main(["report", base + ".lttnz"]) == 0
        cli = capsys.readouterr()
        assert cli.err.startswith("records: ")
        with server.client() as client:
            job = client.submit(spec(seed=3))["job"]
            client.wait(job["id"])
            assert client.render(job["id"], "report") == cli.out

    def test_render_chart_is_the_cli_chart_stdout(self, server, tmp_path,
                                                  capsys):
        """``lttng-noise chart --top N`` prints the same N rows as the
        service's chart render with ``top=N``, byte for byte, also past
        the formatter's default limit of 20 rows."""
        from repro.cli import main

        base = str(tmp_path / "ftq")
        assert main(["record", "FTQ", "--duration", "200ms", "--seed", "3",
                     "--ncpus", "2", "-o", base]) == 0
        capsys.readouterr()
        assert main(["chart", base + ".lttnz", "--top", "25"]) == 0
        cli = capsys.readouterr().out
        assert cli.count("t=") == 25
        with server.client() as client:
            job = client.submit(RunSpec.make("FTQ", 200 * MSEC, 3, 2))["job"]
            client.wait(job["id"])
            assert client.render(job["id"], "chart", top=25) == cli

    def test_render_timeline_is_the_cli_timeline_stdout(self, server,
                                                        tmp_path, capsys):
        """The service's timeline render with ``width=60`` equals
        ``lttng-noise timeline --width 60`` stdout, byte for byte."""
        from repro.cli import main

        base = str(tmp_path / "ftq")
        assert main(["record", "FTQ", "--duration", "50ms", "--seed", "3",
                     "--ncpus", "2", "-o", base]) == 0
        capsys.readouterr()
        assert main(["timeline", base + ".lttnz", "--width", "60"]) == 0
        cli = capsys.readouterr().out
        assert cli.startswith("cpu0: |") and "cpu1: |" in cli
        with server.client() as client:
            job = client.submit(spec(seed=3))["job"]
            client.wait(job["id"])
            assert client.render(job["id"], "timeline", width=60) == cli

    def test_render_chrome_is_the_cli_export_file(self, server, tmp_path,
                                                  capsys):
        """The service's chrome render body equals the file
        ``lttng-noise export --chrome`` writes for the same run."""
        import http.client

        from repro.cli import main

        base = str(tmp_path / "ftq")
        assert main(["record", "FTQ", "--duration", "50ms", "--seed", "3",
                     "--ncpus", "2", "-o", base]) == 0
        path = str(tmp_path / "ftq.chrome.json")
        assert main(["export", base + ".lttnz", "--chrome", path]) == 0
        capsys.readouterr()
        with server.client() as client:
            job = client.submit(spec(seed=3))["job"]
            client.wait(job["id"])
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("GET", f"/v1/jobs/{job['id']}/render/chrome")
            response = conn.getresponse()
            assert response.status == 200
            body = response.read()
        finally:
            conn.close()
        with open(path, "rb") as fh:
            assert body == fh.read()

    def test_trace_upload_matches_batch_analysis(self, server):
        """Streaming an uploaded trace through the service produces the
        same numbers as batch-analyzing it locally."""
        from repro.core import NoiseAnalysis

        s = spec(seed=3)
        trace, meta = s.execute()
        batch = NoiseAnalysis(trace)  # upload carries no meta sidecar
        blob = trace.to_bytes(compress=True)
        with server.client() as client:
            # Chunked (iterator) upload: the service reads as it analyzes.
            pieces = (blob[i:i + 8192] for i in range(0, len(blob), 8192))
            out = client.upload(pieces)
            assert out["job"]["state"] == "done"
            result = out["result"]
            assert result["total_noise_ns"] == batch.total_noise_ns()
            assert result["noise_fraction"] == batch.noise_fraction()
            assert result["per_cpu_noise_ns"] == [
                int(v) for v in batch.per_cpu_noise_ns()
            ]

    def test_upload_with_meta_sidecar_matches_batch_with_meta(self, server):
        """``X-Trace-Meta`` carries the ``.meta.json`` sidecar, so the
        upload classifies tasks (preemption vs daemon) exactly like
        ``lttng-noise analyze`` with the sidecar next to the trace —
        down to the rendered analyze text."""
        from repro.core import NoiseAnalysis
        from repro.core.report import render_analysis_summary

        s = spec(seed=3)
        trace, meta = s.execute()
        expected = render_analysis_summary(NoiseAnalysis(trace, meta=meta))
        with server.client() as client:
            out = client.upload(trace.to_bytes(compress=True),
                                meta_json=meta.to_json())
            assert out["job"]["state"] == "done"
            assert out["result"]["analyze_text"] == expected

    def test_spec_job_renders_cover_the_cli_surface(self, server):
        with server.client() as client:
            job = client.submit(spec())["job"]
            client.wait(job["id"])
            report = client.render(job["id"], "report")
            assert "Per-event statistics" in report
            chart = client.render(job["id"], "chart", top=5)
            assert "interruptions" in chart
            timeline = client.render(job["id"], "timeline", width=40)
            assert "cpu0:" in timeline and "legend:" in timeline
            chrome = client.render(job["id"], "chrome")
            assert chrome["traceEvents"]  # decoded application/json


# ----------------------------------------------------------------------
# Error paths
# ----------------------------------------------------------------------

class TestErrorPaths:
    def test_bad_submissions_are_400(self, server):
        bad_bodies = [
            b"not json at all",
            json.dumps(["a", "list"]).encode(),
            json.dumps({"workload": "FTQ"}).encode(),  # missing fields
            json.dumps({"workload": "NOSUCH", "duration_ns": 1,
                        "seed": 0}).encode(),
            json.dumps({"workload": "FTQ", "duration_ns": -5,
                        "seed": 0}).encode(),
            json.dumps({"workload": "FTQ", "duration_ns": 1, "seed": 0,
                        "ncpus": 0}).encode(),
        ]
        with server.client() as client:
            for body in bad_bodies:
                with pytest.raises(ServiceError) as err:
                    client.request("POST", "/v1/jobs", body=body)
                assert err.value.status == 400
            # Validation rejected everything before job creation.
            assert client.healthz()["submitted"] == 0

    def test_unknown_routes_and_jobs_are_404(self, server):
        with server.client() as client:
            for path in ("/nope", "/v1/jobs/ffff", "/v1/jobs/ffff/result",
                         "/v1/nothing"):
                with pytest.raises(ServiceError) as err:
                    client.request("GET", path)
                assert err.value.status == 404

    def test_unknown_render_kind_is_404(self, server):
        with server.client() as client:
            job = client.submit(spec())["job"]
            client.wait(job["id"])
            with pytest.raises(ServiceError) as err:
                client.render(job["id"], "svg")
            assert err.value.status == 404

    def test_wrong_method_is_405(self, server):
        with server.client() as client:
            with pytest.raises(ServiceError) as err:
                client.request("DELETE", "/v1/jobs")
            assert err.value.status == 405

    def test_garbage_upload_is_400_not_a_crash(self, server):
        with server.client() as client:
            with pytest.raises(ServiceError) as err:
                client.upload(b"definitely not a trace")
            assert err.value.status == 400
            # The failure is recorded as a failed job, not hidden.
            assert server.table.counts()["failed"] == 1
            # And the server still works afterwards.
            assert client.healthz()["status"] == "ok"

    def test_malformed_meta_header_is_400(self, server):
        with server.client() as client:
            with pytest.raises(ServiceError) as err:
                client.upload(b"irrelevant", meta_json="{broken json")
            assert err.value.status == 400
            assert "X-Trace-Meta" in str(err.value)

    def test_oversized_upload_is_413(self, tmp_path):
        obs.enable()
        handle = start_server(str(tmp_path / "store"),
                              max_body_bytes=4096)
        try:
            with handle.client() as client:
                with pytest.raises(ServiceError) as err:
                    client.upload(b"x" * 8192)  # sized: rejected up front
                assert err.value.status == 413
                with pytest.raises(ServiceError) as err:
                    # Chunked: no declared length; rejected mid-stream
                    # as soon as the streamed size crosses the cap.
                    client.upload(iter([b"x" * 5000, b"x" * 5000]))
                assert err.value.status == 413
        finally:
            handle.shutdown()
            obs.disable()
            obs.reset()

    def test_timeline_width_over_the_bound_is_400_before_the_store(
            self, server):
        """A width past ``MAX_TIMELINE_WIDTH`` is refused before the run
        is read back, so no render thread allocates its grid; the server
        answers the next request as before."""
        from repro.core.report import MAX_TIMELINE_WIDTH

        job_id = _done_job(server, spec())
        timeline = f"/v1/jobs/{job_id}/render/timeline"
        hits, misses = server.table.store.hits, server.table.store.misses
        status, body = _get(server, timeline + "?width=1000000000")
        assert status == 400
        assert f"must be <= {MAX_TIMELINE_WIDTH}".encode() in body
        assert (server.table.store.hits, server.table.store.misses) == (
            hits, misses)
        status, body = _get(server, f"{timeline}?width={MAX_TIMELINE_WIDTH}")
        assert status == 200 and body.startswith(b"cpu0: |")
        assert len(body.splitlines()[0]) == len("cpu0: ||") + (
            MAX_TIMELINE_WIDTH)

    def test_upload_jobs_serve_only_the_analyze_render(self, server):
        s = spec()
        trace, _meta = s.execute()
        with server.client() as client:
            job = client.upload(trace.to_bytes(compress=True))["job"]
            assert client.render(job["id"], "analyze").startswith("span ")
            with pytest.raises(ServiceError) as err:
                client.render(job["id"], "report")
            assert err.value.status == 400


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def _get(server, path):
    """``(status, body bytes)`` of one GET, over a fresh connection."""
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _memo_counts():
    return {
        c["labels"]["outcome"]: c["value"]
        for c in obs.snapshot()["counters"] if c["name"] == "service.memo"
    }


def _done_job(server, s):
    with server.client() as client:
        job = client.submit(s)["job"]
        client.wait(job["id"])
    return job["id"]


class TestResponseMemo:
    def test_repeats_serve_the_first_bytes_without_store_reads(
            self, server, tmp_path, capsys):
        """A repeated result or render answers with the first response's
        bytes (which are the CLI's) and reads nothing from the store."""
        from repro.cli import main

        base = str(tmp_path / "ftq")
        assert main(["record", "FTQ", "--duration", "50ms", "--seed", "3",
                     "--ncpus", "2", "-o", base]) == 0
        cli = {}
        for path, argv in (
            ("render/report", ["report", base + ".lttnz"]),
            ("render/chart?top=5", ["chart", base + ".lttnz", "--top", "5"]),
            ("render/timeline?width=40",
             ["timeline", base + ".lttnz", "--width", "40"]),
        ):
            capsys.readouterr()
            assert main(argv) == 0
            cli[path] = capsys.readouterr().out.encode()
        job_id = _done_job(server, spec(seed=3))
        paths = ["result"] + list(cli)
        first = {}
        for path in paths:
            status, first[path] = _get(server, f"/v1/jobs/{job_id}/{path}")
            assert status == 200
        for path, body in cli.items():
            assert first[path] == body
        hits, counts = server.table.store.hits, _memo_counts()
        for path in paths:
            assert _get(server, f"/v1/jobs/{job_id}/{path}") == (
                200, first[path])
        assert server.table.store.hits == hits
        after = _memo_counts()
        assert after["hit"] - counts.get("hit", 0) == len(paths)
        assert after["miss"] == counts["miss"]

    def test_each_query_is_its_own_entry(self, server):
        job_id = _done_job(server, RunSpec.make("FTQ", 200 * MSEC, 3, 2))
        chart = f"/v1/jobs/{job_id}/render/chart"
        _, top5 = _get(server, chart + "?top=5")
        _, top25 = _get(server, chart + "?top=25")
        assert top5.count(b"t=") == 5 and top25.count(b"t=") == 25
        assert len(server.app.memo) == 2
        hits = server.table.store.hits
        assert _get(server, chart + "?top=25") == (200, top25)
        assert _get(server, chart + "?top=5") == (200, top5)
        assert server.table.store.hits == hits

    def test_invalid_query_is_still_400(self, server):
        job_id = _done_job(server, spec())
        chart = f"/v1/jobs/{job_id}/render/chart"
        status, body = _get(server, chart + "?top=0")
        assert status == 400 and b"must be >= 1" in body
        _, top20 = _get(server, chart + "?top=20")
        hits = server.table.store.hits
        assert _get(server, chart + "?top=20") == (200, top20)
        assert _get(server, chart) == (200, top20)
        assert _get(server, chart + "?top=0")[0] == 400
        assert server.table.store.hits == hits
        assert len(server.app.memo) == 1

    def test_not_done_answers_are_not_kept(self, server):
        """A 409 is never memoized: once the job is done, the same GET
        returns its 200 body."""
        from repro.service.jobs import Job

        job = Job(id="not-done-yet", kind="spec", spec=spec(seed=9))
        server.table.jobs[job.id] = job
        assert _get(server, f"/v1/jobs/{job.id}/result")[0] == 409
        assert _get(server, f"/v1/jobs/{job.id}/render/report")[0] == 409
        assert len(server.app.memo) == 0
        job.result = {"span_ns": 1}
        job.state = "done"
        status, body = _get(server, f"/v1/jobs/{job.id}/result")
        assert status == 200
        assert json.loads(body)["result"] == {"span_ns": 1}

    def test_memoized_render_outlives_the_store_entry(self, server):
        job_id = _done_job(server, spec())
        status, report = _get(server, f"/v1/jobs/{job_id}/render/report")
        assert status == 200
        server.table.store.evict_token(job_id)
        assert _get(server, f"/v1/jobs/{job_id}/render/report") == (
            200, report)
        assert _get(server, f"/v1/jobs/{job_id}/render/chrome")[0] == 404

    def test_least_recently_used_goes_first(self, monkeypatch):
        from repro.service import handlers
        from repro.service.http import Response

        monkeypatch.setattr(handlers, "MEMO_BYTES", 100)
        memo = handlers.ResponseMemo()
        for key in "abc":
            memo.put(key, Response(200, key.encode() * 40))
        assert memo.get("a") is None and memo.nbytes == 80
        assert memo.get("b") is not None  # c is now the oldest
        memo.put("d", Response(200, b"d" * 40))
        assert memo.get("c") is None
        assert [memo.get(k).body[:1] for k in "bd"] == [b"b", b"d"]
        memo.put("e", Response(200, b"e" * 101))  # over budget: not kept
        assert memo.get("e") is None and len(memo) == 2
        memo.put("f", Response(404, b"f"))
        assert memo.get("f") is None

    def test_oversized_body_is_served_but_not_kept(self, server,
                                                   monkeypatch):
        from repro.service import handlers

        monkeypatch.setattr(handlers, "MEMO_BYTES", 4096)
        job_id = _done_job(server, spec())
        path = f"/v1/jobs/{job_id}/render/chrome"
        status, body = _get(server, path)
        assert status == 200 and len(body) > 4096
        hits = server.table.store.hits
        assert _get(server, path) == (200, body)
        assert server.table.store.hits == hits + 1
        assert len(server.app.memo) == 0


class TestMetrics:
    def test_metrics_expose_service_series_and_parse(self, server):
        with server.client() as client:
            job = client.submit(spec())["job"]
            client.wait(job["id"])
            text = client.metrics()
        assert text.startswith("#") or "lttng_noise" in text
        names = set()
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            float(value)  # every sample line ends in a number
            names.add(name.split("{", 1)[0])
        assert "lttng_noise_service_requests_total" in names
        assert "lttng_noise_service_jobs_submitted_total" in names
        assert "lttng_noise_service_queue_depth" in names
        assert "lttng_noise_service_active_jobs" in names
        # Latency histogram exposes the full triplet.
        assert "lttng_noise_service_request_ms_bucket" in names
        assert "lttng_noise_service_request_ms_count" in names
        assert "lttng_noise_service_request_ms_sum" in names


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------

class TestGracefulDrain:
    def test_drain_runs_every_accepted_job_to_completion(self, tmp_path):
        """Shutdown with queued work: every accepted job reaches a
        terminal state before the server exits (zero lost jobs)."""
        obs.enable()
        handle = start_server(str(tmp_path / "store"), max_concurrency=1)
        try:
            with handle.client() as client:
                ids = [client.submit(spec(seed=s))["job"]["id"]
                       for s in range(4)]
        finally:
            handle.shutdown()  # returns only after table.drain()
            obs.disable()
            obs.reset()
        counts = handle.table.counts()
        assert counts["queued"] == 0 and counts["running"] == 0
        assert counts["done"] == len(set(ids))

    def test_sigterm_drains_the_serve_subprocess(self, tmp_path):
        """The real thing: ``lttng-noise serve`` under SIGTERM finishes
        its work, reports the drain, and exits 0."""
        import re
        import signal
        import subprocess
        import sys
        import time

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--listen", "127.0.0.1:0", "--serial",
             "--store", str(tmp_path / "store")],
            stderr=subprocess.PIPE, text=True,
        )
        try:
            # The announce line carries the picked port.
            line = proc.stderr.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
            assert match, f"no listen line: {line!r}"
            port = int(match.group(1))
            with ServiceClient("127.0.0.1", port) as client:
                job = client.submit(spec())["job"]
                proc.send_signal(signal.SIGTERM)
                # The in-flight job still completes during drain.
            deadline = time.monotonic() + 60
            while proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
            assert proc.returncode == 0
            rest = proc.stderr.read()
            assert "drained:" in rest
            assert "done=1" in rest
            assert job["id"]  # accepted before the signal
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stderr.close()


# ----------------------------------------------------------------------
# Odds and ends
# ----------------------------------------------------------------------

class TestHelpers:
    def test_parse_hostport(self):
        assert parse_hostport("127.0.0.1:8787", 1) == ("127.0.0.1", 8787)
        assert parse_hostport("myhost", 42) == ("myhost", 42)
        assert parse_hostport(":9000", 1) == ("127.0.0.1", 9000)
        with pytest.raises(ValueError):
            parse_hostport("host:notaport", 1)

    def test_list_jobs_reflects_submissions(self, server):
        with server.client() as client:
            client.wait(client.submit(spec())["job"]["id"])
            client.wait(client.submit(spec(seed=1))["job"]["id"])
            listing = client.jobs()
            assert len(listing["jobs"]) == 2
            assert listing["counts"]["done"] == 2
            assert all(j["spec"]["workload"] == "FTQ"
                       for j in listing["jobs"])
