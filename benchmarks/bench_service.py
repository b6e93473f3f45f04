"""Performance of the analysis service: multi-client cache-hit serving.

Not a paper experiment — engineering numbers for the ``lttng-noise
serve`` subsystem.  The gated metric is ``service_hit_rps``: cache-hit
request throughput with 8 concurrent clients relative to 1 client, over
the same warmed store.  It is a machine-independent ratio (both sides
run on the same box in the same session) that CI gates through ``obs
diff`` against ``benchmarks/baselines/BENCH_9.json`` — a drop means
concurrent requests started serializing somewhere (event loop blocked on
store reads, lock contention in the job table, handler doing analysis
work inline).
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro import obs
from repro.exec.spec import RunSpec
from repro.exec.store import ShardedStore
from repro.service.client import ServiceClient
from repro.service.handlers import ServiceApp
from repro.service.http import HttpServer
from repro.service.jobs import JobTable
from repro.util.units import MSEC

from trajectory import record_metric

SPEC = RunSpec.make("FTQ", 60 * MSEC, 0, 2)


class _Server:
    def __init__(self, store_root: str) -> None:
        ready = threading.Event()
        self._box = {}

        async def main():
            loop = asyncio.get_running_loop()
            stop = asyncio.Event()
            table = JobTable(ShardedStore(store_root), max_concurrency=4,
                             use_pool=False)
            server = HttpServer(ServiceApp(table).handle, port=0)
            await server.start()
            self._box.update(port=server.port, stop=stop, loop=loop)
            ready.set()
            await stop.wait()
            await server.drain()
            await table.drain()
            table.close()

        self._thread = threading.Thread(
            target=lambda: asyncio.run(main()), daemon=True
        )
        self._thread.start()
        assert ready.wait(timeout=30)
        self.port = self._box["port"]

    def shutdown(self) -> None:
        self._box["loop"].call_soon_threadsafe(self._box["stop"].set)
        self._thread.join(timeout=60)


@pytest.fixture(scope="module")
def warm_server(tmp_path_factory):
    """A running service whose store already holds SPEC's result, so
    every benchmark request is a cache hit."""
    obs.enable()
    server = _Server(str(tmp_path_factory.mktemp("svc-store")))
    with ServiceClient("127.0.0.1", server.port) as client:
        job = client.submit(SPEC)["job"]
        client.wait(job["id"])
    yield server
    server.shutdown()
    obs.disable()
    obs.reset()


def _hit_round_trip(client: ServiceClient, job_id: str) -> None:
    """One cache-hit request pair: idempotent re-submit + result fetch."""
    assert client.submit(SPEC)["created"] is False
    assert client.result(job_id)["result"]["span_ns"] > 0


def _hit_rps(port: int, nclients: int, requests_per_client: int) -> float:
    """Cache-hit round trips per second with nclients concurrent
    keep-alive clients (each round trip is two requests)."""
    job_id = None
    with ServiceClient("127.0.0.1", port) as probe:
        job_id = probe.submit(SPEC)["job"]["id"]
    barrier = threading.Barrier(nclients + 1)
    errors = []

    def body():
        try:
            with ServiceClient("127.0.0.1", port) as client:
                client.healthz()  # connection warm before the clock
                barrier.wait()
                for _ in range(requests_per_client):
                    _hit_round_trip(client, job_id)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)
            try:
                barrier.abort()
            except threading.BrokenBarrierError:
                pass

    threads = [threading.Thread(target=body) for _ in range(nclients)]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    assert errors == [], errors[:1]
    return nclients * requests_per_client / elapsed


def test_service_cache_hit_round_trip(benchmark, warm_server):
    """Single-client latency of one idempotent submit + result fetch."""
    with ServiceClient("127.0.0.1", warm_server.port) as client:
        job_id = client.submit(SPEC)["job"]["id"]
        benchmark.pedantic(
            lambda: _hit_round_trip(client, job_id), rounds=20, iterations=1
        )


def test_service_hit_rps_scales_with_clients(warm_server):
    """8 concurrent clients vs 1 over the same warm store.

    The ratio gates the service's concurrency story: responses are built
    on the event loop but jobs resolve from the table without touching
    the executor, so more clients must not *reduce* aggregate hit
    throughput (ratio well below 1.0 would mean added clients serialize
    and then some)."""
    single = _hit_rps(warm_server.port, 1, 40)
    concurrent = _hit_rps(warm_server.port, 8, 15)
    ratio = concurrent / single
    print(f"\nservice cache-hit throughput: 1 client {single:.0f} rt/s, "
          f"8 clients {concurrent:.0f} rt/s ({ratio:.2f}x)")
    record_metric("service_hit_rps", ratio)
    assert single > 50, f"warm round trips too slow: {single:.0f}/s"
    assert ratio > 0.5, (
        f"8-client hit throughput collapsed to {ratio:.2f}x of 1 client"
    )


#: The serve workload's job shape; each is rendered cold once, then warm.
MEMO_SPECS = [RunSpec.make("LAMMPS", 100 * MSEC, seed, 8) for seed in range(10)]
MEMO_PATHS = {
    "result": "result", "report": "render/report",
    "chart": "render/chart", "timeline": "render/timeline",
    "chrome": "render/chrome",
}
MEMO_HITS = 5


def _ms_stats(values, prefix):
    ordered = sorted(values)
    p95 = ordered[max(0, -(-len(ordered) * 95 // 100) - 1)]
    return {
        f"{prefix}_ms_min": round(ordered[0], 3),
        f"{prefix}_ms_median": round(ordered[len(ordered) // 2], 3),
        f"{prefix}_ms_p95": round(p95, 3),
    }


def test_perf_render_memo(benchmark, tmp_path):
    """A done job's result and renders, first (a memo miss: store read,
    analysis, render or JSON encoding) and repeated (a memo hit), over
    one keep-alive connection.  One round takes the next of ten LAMMPS
    100 ms jobs through every kind once cold and ``MEMO_HITS`` times
    warm.  ``extra_info`` carries miss and hit ms per kind (min, median,
    p95); every hit must return the miss's bytes."""
    import http.client

    server = _Server(str(tmp_path / "store"))
    try:
        with ServiceClient("127.0.0.1", server.port) as client:
            job_ids = [client.submit(spec)["job"]["id"]
                       for spec in MEMO_SPECS]
            for job_id in job_ids:
                assert client.wait(job_id)["state"] == "done"
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=60)
        ms = {kind: {"miss": [], "hit": []} for kind in MEMO_PATHS}
        mismatched = []

        def get(path):
            t0 = time.perf_counter()
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            assert response.status == 200, (path, body[:200])
            return (time.perf_counter() - t0) * 1e3, body

        def one_round():
            job_id = job_ids[len(ms["result"]["miss"])]
            for kind, sub in MEMO_PATHS.items():
                path = f"/v1/jobs/{job_id}/{sub}"
                elapsed, first = get(path)
                ms[kind]["miss"].append(elapsed)
                for _ in range(MEMO_HITS):
                    elapsed, body = get(path)
                    ms[kind]["hit"].append(elapsed)
                    if body != first:
                        mismatched.append(path)

        benchmark.pedantic(one_round, rounds=len(job_ids), iterations=1)
        conn.close()
    finally:
        server.shutdown()
    for kind, outcomes in ms.items():
        for outcome, values in outcomes.items():
            benchmark.extra_info.update(_ms_stats(values, f"{kind}.{outcome}"))
    assert mismatched == []
