"""A tiny urllib client for the DSE service (tests, CI, load smoke).

No third-party HTTP stack — :mod:`urllib.request` against the stdlib
server keeps the client importable anywhere the package is.  Error
responses surface as :class:`ServeError` carrying the HTTP status and
the server's ``error`` message; :meth:`ServeClient.raw_results` returns
the served bytes untouched for byte-identity assertions.

The client retries what a client safely can: connection errors (the
server is restarting — its jobs are durable, so the same request lands
normally a moment later) and 5xx responses, with capped jittered
exponential backoff that honours a 503's ``Retry-After``.  4xx responses
never retry — they mean the request itself, not the moment.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request

__all__ = ["ServeError", "ServeClient"]


class ServeError(RuntimeError):
    """An HTTP error response from the service."""

    def __init__(self, status, message):
        super().__init__(f"HTTP {status}: {message}")
        self.status = int(status)
        self.message = message


class ServeClient:
    """Talk to one server: submit studies, poll status, fetch results."""

    def __init__(self, base_url, timeout=30.0, retries=3, backoff_s=0.2):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)

    # -- plumbing ------------------------------------------------------
    def _delay(self, attempt, retry_after=None) -> float:
        delay = min(5.0, self.backoff_s * 2**attempt) * (0.5 + random.random())
        if retry_after is not None:
            try:
                delay = max(delay, min(30.0, float(retry_after)))
            except (TypeError, ValueError):
                pass
        return delay

    def _request(self, path, data=None) -> bytes:
        url = f"{self.base_url}{path}"
        request = urllib.request.Request(
            url,
            data=data,
            headers={"Content-Type": "application/json"} if data else {},
        )
        for attempt in range(self.retries + 1):
            try:
                with urllib.request.urlopen(
                    request, timeout=self.timeout
                ) as response:
                    return response.read()
            except urllib.error.HTTPError as exc:
                body = exc.read()
                try:
                    message = json.loads(body).get("error", body.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    message = body.decode("utf-8", "replace")
                error = ServeError(exc.code, message)
                if exc.code < 500 or attempt >= self.retries:
                    raise error from None
                retry_after = exc.headers.get("Retry-After") if exc.headers else None
                time.sleep(self._delay(attempt, retry_after))
            except urllib.error.URLError:
                # Connection refused/reset: the server side of a restart.
                if attempt >= self.retries:
                    raise
                time.sleep(self._delay(attempt))
        raise AssertionError("unreachable")  # pragma: no cover

    def _json(self, path, payload=None):
        data = None
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
        return json.loads(self._request(path, data=data))

    # -- API -----------------------------------------------------------
    def health(self) -> dict:
        return self._json("/health")

    def submit(self, request: dict) -> dict:
        """POST a study; returns the submission info (id, cache_hit, ...)."""
        return self._json("/jobs", payload=request)

    def jobs(self) -> list:
        return self._json("/jobs")["jobs"]

    def status(self, job_id: str) -> dict:
        return self._json(f"/jobs/{job_id}")

    def events(self, job_id: str) -> list:
        """The job's durable lifecycle timeline, oldest record first."""
        return self._json(f"/jobs/{job_id}/events")["events"]

    def metrics_text(self) -> str:
        """``GET /metrics`` — Prometheus text exposition, verbatim."""
        return self._request("/metrics").decode("utf-8")

    def raw_results(self, job_id: str) -> bytes:
        """The results document's exact bytes (byte-identity checks)."""
        return self._request(f"/jobs/{job_id}/results")

    def wait(self, job_id: str, timeout=300.0, poll=0.2) -> dict:
        """Poll until the job leaves the queue; returns its final status.

        Raises :class:`TimeoutError` if the job is still running at the
        deadline and :class:`ServeError` never (a *failed* job is a
        terminal status here — callers decide how loud to be).
        """
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in ("done", "failed"):
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after {timeout}s "
                    f"({status.get('done', 0)}/{status.get('grid_size', '?')} points)"
                )
            time.sleep(poll)
