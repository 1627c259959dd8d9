"""The HTTP surface: stdlib ``ThreadingHTTPServer`` over a JobManager.

Six routes — JSON everywhere except the Prometheus text of ``/metrics``:

========================  ====================================================
``GET /health``           liveness + the manager's counters
``GET /metrics``          the process's telemetry registry in Prometheus
                          text exposition format (:mod:`repro.obs`)
``POST /jobs``            submit a study → ``{id, state, cache_hit, ...}``
                          (``201`` when this call created the job, ``200``
                          when it deduplicated onto a running one or hit the
                          result cache)
``GET /jobs``             brief info for every job directory
``GET /jobs/<id>``        progress (done %, ETA): a live job's from the
                          store ledger, a finished job's from its dir
``GET /jobs/<id>/events``  the job's durable lifecycle timeline
                          (``events.jsonl``, oldest first)
``GET /jobs/<id>/results``  the results document — partial while running,
                          and once done the cached text **verbatim**
                          (byte-identical to ``python -m repro dse --json``)
========================  ====================================================

Errors are ``{"error": msg}``: ``400`` for malformed submissions, ``404``
for unknown ids, ``409`` for results of a failed job, ``500`` for a job
ledger corrupt before its final line.  The server is
deliberately boring — every decision lives in :class:`.jobs.JobManager`;
this module only parses bytes and picks status codes.

Every request is timed: per-route counters and latency histograms land in
the default :mod:`repro.obs` registry (``serve_http_requests_total``,
``serve_http_request_seconds``), which :func:`build_server` enables so a
served study populates the DSE/dist counters too.  ``--verbose`` emits a
structured one-line access log per request through the
``repro.serve.access`` logger; the stdlib's stderr printf
(``log_message``) is silenced unconditionally.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import perf_counter

from .. import obs
from ..ledger import StoreCorruptError
from ..obs import METRICS_CONTENT_TYPE, render_metrics
from .jobs import (
    JobFailedError,
    JobManager,
    ServeOverloadError,
    ServeRequestError,
    UnknownJobError,
)

__all__ = ["ServeServer", "build_server", "run_server", "serving"]

_JOB_ROUTE = re.compile(r"^/jobs/([0-9a-f]{16})(/results|/events)?$")

_access_log = obs.get_logger("serve.access")


def _path_template(path: str) -> str:
    """Collapse a request path to its route label (bounded cardinality)."""
    path = path.split("?", 1)[0]
    if path in ("/", "/health"):
        return "/health"
    if path in ("/jobs", "/metrics"):
        return path
    match = _JOB_ROUTE.match(path)
    if match:
        return "/jobs/{id}" + (match.group(2) or "")
    return "(unmatched)"


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def manager(self) -> JobManager:
        return self.server.manager

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Silenced: the structured access log in :meth:`_dispatch`
        replaces the stdlib's per-request stderr printf."""

    # -- plumbing ------------------------------------------------------
    def _send(self, code, text, content_type="application/json", headers=None):
        body = text.encode("utf-8")
        self._status = code
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code, payload, headers=None):
        self._send(code, json.dumps(payload, sort_keys=True), headers=headers)

    def _error(self, code, message):
        self._send_json(code, {"error": str(message)})

    def _dispatch(self, method, route_handler):
        """Time one request and record it: counters, histogram, access log.

        Telemetry wraps the route handler rather than living inside it,
        so every route — including future ones — is measured the same
        way, and a handler crash still records a 500.
        """
        begin = perf_counter()
        self._status = None
        try:
            route_handler()
        finally:
            duration = perf_counter() - begin
            status = self._status if self._status is not None else 500
            route = _path_template(self.path)
            registry = obs.get_registry()
            if registry.enabled:
                registry.counter(
                    "serve_http_requests_total",
                    help="HTTP requests by method, route and status.",
                    method=method,
                    route=route,
                    status=str(status),
                ).inc()
                registry.histogram(
                    "serve_http_request_seconds",
                    help="HTTP request latency by route.",
                    route=route,
                ).observe(duration)
            if self.server.verbose:
                _access_log.info(
                    "method=%s path=%s status=%s duration_ms=%.2f",
                    method,
                    self.path.split("?", 1)[0],
                    status,
                    duration * 1000.0,
                )

    # -- routes --------------------------------------------------------
    def do_GET(self):
        self._dispatch("GET", self._handle_get)

    def do_POST(self):
        self._dispatch("POST", self._handle_post)

    def _handle_get(self):
        path = self.path.split("?", 1)[0]
        if path in ("/", "/health"):
            self._send_json(
                200, {"ok": True, "service": "repro-serve", "stats": self.manager.stats}
            )
            return
        if path == "/metrics":
            self._send(
                200,
                render_metrics(obs.get_registry()),
                content_type=METRICS_CONTENT_TYPE,
            )
            return
        if path == "/jobs":
            self._send_json(200, {"jobs": self.manager.jobs()})
            return
        match = _JOB_ROUTE.match(path)
        if match is None:
            self._error(404, f"no route {path!r}")
            return
        job_id, suffix = match.group(1), match.group(2) or ""
        try:
            if suffix == "/results":
                # The results document is pre-rendered text; send it
                # verbatim — these bytes are the byte-identity contract.
                text, _partial = self.manager.results(job_id)
                self._send(200, text)
            elif suffix == "/events":
                events = self.manager.events(job_id)
                self._send_json(
                    200, {"id": job_id, "count": len(events), "events": events}
                )
            else:
                self._send_json(200, self.manager.status(job_id))
        except UnknownJobError:
            self._error(404, f"unknown job {job_id!r}")
        except JobFailedError as exc:
            self._error(409, f"job {job_id} failed: {exc}")
        except StoreCorruptError as exc:
            self._error(500, f"job ledger unreadable: {exc}")

    def _handle_post(self):
        path = self.path.split("?", 1)[0]
        if path != "/jobs":
            self._error(404, f"no route {path!r}")
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self._error(400, "bad Content-Length")
            return
        try:
            request = json.loads(self.rfile.read(length) or b"")
        except json.JSONDecodeError as exc:
            self._error(400, f"request body is not valid JSON: {exc}")
            return
        try:
            info = self.manager.submit(request)
        except ServeRequestError as exc:
            self._error(400, str(exc))
            return
        except ServeOverloadError as exc:
            # Backpressure: 503 plus a machine-readable Retry-After so
            # well-behaved clients (ServeClient included) pace themselves.
            self._send_json(
                503,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": str(int(math.ceil(exc.retry_after)))},
            )
            return
        self._send_json(201 if info["created"] else 200, info)


class ServeServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer that owns a :class:`JobManager`.

    ``resumed`` lists the job ids the manager re-queued at start-up.
    """

    daemon_threads = True

    def __init__(self, address, manager: JobManager, verbose=False, resumed=()):
        super().__init__(address, _Handler)
        self.manager = manager
        self.verbose = verbose
        self.resumed = list(resumed)

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"


def build_server(
    data_dir,
    host="127.0.0.1",
    port=0,
    workers=2,
    max_pending=1024,
    task_timeout=None,
    task_retries=2,
    verbose=False,
) -> ServeServer:
    """Bind a server and resume any unfinished jobs in ``data_dir``.

    ``port=0`` binds an ephemeral port (read it back from ``.port``).
    Resumption happens *before* the first request can land: a restarted
    server already owes its half-done studies to the queue.  Enables the
    default telemetry registry — a serving process is exactly the process
    whose ``/metrics`` should be live.
    """
    obs.enable()
    manager = JobManager(
        data_dir,
        workers=workers,
        max_pending=max_pending,
        task_timeout=task_timeout,
        task_retries=task_retries,
    )
    resumed = manager.resume()
    return ServeServer((host, port), manager, verbose=verbose, resumed=resumed)


def run_server(
    data_dir,
    host="127.0.0.1",
    port=8765,
    workers=2,
    verbose=False,
    max_pending=1024,
    task_timeout=None,
    task_retries=2,
):
    """Blocking entry point behind ``python -m repro serve``.

    ``SIGTERM`` drains gracefully: the accept loop stops, in-flight
    shard tasks finish (their records are already durable either way),
    and the process exits 0 — queued work resumes on the next start.
    """
    if verbose:
        obs.configure_logging()
    server = build_server(
        data_dir, host=host, port=port, workers=workers, verbose=verbose,
        max_pending=max_pending, task_timeout=task_timeout,
        task_retries=task_retries,
    )

    def _drain(signum, frame):
        print("repro-serve: SIGTERM received, draining", flush=True)
        # shutdown() blocks until serve_forever returns, so it must not
        # run on the thread currently inside serve_forever.
        threading.Thread(target=server.shutdown, daemon=True).start()

    # Registered before the startup banner: once a supervisor can read
    # the address, SIGTERM already means drain, not die.
    try:
        signal.signal(signal.SIGTERM, _drain)
    except ValueError:
        pass  # not the main thread (tests drive run_server off-main)
    print(
        f"repro-serve listening on {server.url} "
        f"(data_dir={data_dir}, workers={workers}, "
        f"resumed={len(server.resumed)})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        server.manager.stop()
    return server


@contextlib.contextmanager
def serving(data_dir, **kwargs):
    """Run a server on a background thread for the ``with`` body.

    Yields the :class:`ServeServer`; the tests' and benchmarks' way to
    stand up a real HTTP endpoint (ephemeral port by default) without a
    subprocess.
    """
    server = build_server(data_dir, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        server.manager.stop()
        thread.join(timeout=10)
