"""Stdlib client for the analysis service.

``http.client`` rather than the asyncio stack on purpose: the client is
what tests and the ``lttng-noise submit`` subcommand use to talk to a
*separately running* server, so it exercises the service over a real
socket the way any third-party tool would — no shared event loop, no
shortcuts through in-process state.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, BinaryIO, Dict, Iterable, Optional, Union

from repro.exec.spec import RunSpec

#: Upload chunk size for streamed trace bodies.
SEND_CHUNK = 64 * 1024


class ServiceError(Exception):
    """A non-2xx service response, with its status and decoded body."""

    def __init__(self, status: int, body: Any) -> None:
        message = body.get("error") if isinstance(body, dict) else str(body)
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.body = body


class ServiceClient:
    """Thin JSON client over one keep-alive connection."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8787,
                 timeout_s: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def request(
        self,
        method: str,
        path: str,
        body: Union[None, bytes, Iterable[bytes], BinaryIO] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Any:
        """One request; JSON responses come back decoded, text as str.

        Retries once on a stale keep-alive connection (the server may
        have closed it between requests), never on a fresh one.
        """
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body,
                             headers=dict(headers or {}))
                response = conn.getresponse()
                break
            except (http.client.HTTPException, ConnectionError, OSError):
                self.close()
                if attempt:
                    raise
        payload = response.read()
        ctype = response.headers.get("Content-Type", "")
        decoded: Any
        if ctype.startswith("application/json"):
            try:
                decoded = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                decoded = payload
        elif ctype.startswith("text/"):
            decoded = payload.decode("utf-8", errors="replace")
        else:
            decoded = payload
        if response.status >= 400:
            raise ServiceError(response.status, decoded)
        return decoded

    def _json(self, method: str, path: str,
              payload: Optional[Any] = None) -> Any:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        return self.request(method, path, body=body, headers=headers)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        return self._json("GET", "/healthz")

    def metrics(self) -> str:
        return self.request("GET", "/metrics")

    def submit(self, spec: Union[RunSpec, Dict[str, Any]]) -> Dict[str, Any]:
        payload = spec.to_dict() if isinstance(spec, RunSpec) else spec
        return self._json("POST", "/v1/jobs", payload)

    def jobs(self) -> Dict[str, Any]:
        return self._json("GET", "/v1/jobs")

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._json("GET", f"/v1/jobs/{job_id}")

    def result(self, job_id: str) -> Dict[str, Any]:
        return self._json("GET", f"/v1/jobs/{job_id}/result")

    def render(self, job_id: str, kind: str = "analyze",
               **query: Union[int, str]) -> Union[str, bytes]:
        path = f"/v1/jobs/{job_id}/render/{kind}"
        if query:
            path += "?" + "&".join(f"{k}={v}" for k, v in query.items())
        return self.request("GET", path)

    def upload(
        self,
        pieces: Union[bytes, Iterable[bytes], BinaryIO],
        meta_json: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Stream a trace body up for analysis (chunked when unsized).

        ``meta_json`` is the trace's ``.meta.json`` sidecar content; it
        rides in the ``X-Trace-Meta`` header so the server classifies
        tasks (preemption vs daemon) exactly like batch ``analyze``.
        """
        # For a non-bytes body (iterable / file object) http.client
        # cannot size it, so it switches to chunked transfer-encoding by
        # itself — setting the header manually would suppress its chunk
        # framing and corrupt the stream.
        headers = {"Content-Type": "application/octet-stream"}
        if meta_json is not None:
            # TraceMeta.to_json is ensure_ascii single-line JSON, safe
            # as a header value.
            headers["X-Trace-Meta"] = " ".join(meta_json.split())
        return self.request("POST", "/v1/traces", body=pieces,
                            headers=headers)

    def upload_file(self, path: str,
                    meta_path: Optional[str] = None) -> Dict[str, Any]:
        """Upload a trace file; its ``.meta.json`` sidecar (or an
        explicit ``meta_path``) is sent along when present, mirroring
        the batch CLI's sidecar lookup."""
        import os

        if meta_path is None:
            candidate = os.path.splitext(path)[0] + ".meta.json"
            meta_path = candidate if os.path.exists(candidate) else None
        meta_json: Optional[str] = None
        if meta_path:
            with open(meta_path, "r", encoding="utf-8") as fh:
                meta_json = fh.read()

        def pieces() -> Iterable[bytes]:
            with open(path, "rb") as fh:
                while True:
                    piece = fh.read(SEND_CHUNK)
                    if not piece:
                        return
                    yield piece

        return self.upload(pieces(), meta_json=meta_json)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def wait(self, job_id: str, timeout_s: float = 120.0,
             poll_s: float = 0.05) -> Dict[str, Any]:
        """Poll a job to a terminal state; returns the final status."""
        deadline = time.monotonic() + timeout_s
        while True:
            status = self.status(job_id)["job"]
            if status["state"] in ("done", "failed"):
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} "
                    f"after {timeout_s}s"
                )
            time.sleep(poll_s)

    def run(self, spec: Union[RunSpec, Dict[str, Any]],
            timeout_s: float = 120.0) -> Dict[str, Any]:
        """Submit, wait, fetch: the whole round trip in one call."""
        job = self.submit(spec)["job"]
        final = self.wait(job["id"], timeout_s=timeout_s)
        if final["state"] == "failed":
            raise ServiceError(500, {"error": final.get("error")})
        return self.result(job["id"])
