"""The served workloads: ``python -m repro serve`` driven by one client.

One closed-loop client sends a study, waits for it, fetches its result
bytes, then sends the next (one TCP connection per request).  Two study
streams share this code:

* ``serve_fresh`` — every study is new (the write path: POST, shard,
  merge, render, publish), and the client polls ``GET /jobs/<id>`` every
  :data:`POLL_S` seconds until it is done;
* ``serve_cached`` — every request re-submits one of
  :data:`CACHED_STUDIES` studies finished before the timed window, so the
  POST is a content-addressed cache hit and the client fetches the bytes
  straight away (the read path).

Studies are 16-point cycle-accurate DeiT-Tiny grids: four ``mac_lines``
(fixed) by four ``bandwidth_gbps`` drawn from the seed, so every study
costs the same and no two studies share a fingerprint.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import subprocess
import time
from pathlib import Path

from . import trace_report
from .common import (
    BenchError,
    Outcome,
    host_noise,
    host_ticks,
    median,
    nearest_rank,
    proc_cpu_s,
    proc_peak_rss_mb,
    repro_cmd,
    sut_env,
)

MODEL = "deit-tiny"
SPARSITY = 0.9
MAC_LINES = (16, 32, 64, 128)
POLL_S = 0.005
BLOCK_S = 1.0
CACHED_STUDIES = 32
#: ``setup_s`` is the median of the set-up before the timed window and of
#: one more, on a throwaway server, after every ``SETUP_EVERY`` blocks, so
#: that the set-ups sample the whole window and not its first seconds.
SETUP_EVERY = 3
#: A p95 is reported only with at least this many samples beyond it.
P95_MIN_BEYOND = 10
STUDY_POINTS = 4 * len(MAC_LINES)


class StudyStream:
    """Seeded, never-repeating 16-point studies (same cost each)."""

    def __init__(self, seed):
        self._rng = random.Random(f"serve-{seed}")
        self._seen = set()

    def next(self) -> dict:
        while True:
            bandwidths = tuple(
                sorted(round(self._rng.uniform(24.0, 192.0), 3) for _ in range(4))
            )
            if len(set(bandwidths)) == 4 and bandwidths not in self._seen:
                self._seen.add(bandwidths)
                return {"bandwidth_gbps": list(bandwidths),
                        "mac_lines": list(MAC_LINES)}


class Client:
    """HTTP/1.1 to one server, one TCP connection per request.

    That is what the repo's own ``ServeClient`` (urllib) does.  A reused
    keep-alive connection would instead measure the server's two-write
    responses meeting Nagle's algorithm and delayed ACKs: about 40 ms of
    idle wait per response on Linux loopback.
    """

    def __init__(self, port):
        self.port = port

    def request(self, method, path, body=None):
        headers = {"Content-Type": "application/json"} if body else {}
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30.0)
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()


class Server:
    """A ``python -m repro serve`` subprocess on an ephemeral port."""

    def __init__(self, workdir: Path, traced_dir=None):
        self.data_dir = workdir / "data"
        self.log_path = workdir / "serve.log"
        workdir.mkdir(parents=True, exist_ok=True)
        self.log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            repro_cmd("serve", "--port", 0, "--data-dir", self.data_dir),
            stdout=self.log,
            stderr=subprocess.STDOUT,
            env=sut_env(traced_dir),
        )
        self.port = None

    @property
    def pid(self):
        return self.proc.pid

    def wait_ready(self):
        """Block until the banner names the port and ``/health`` answers."""
        deadline = time.monotonic() + 60.0
        while self.port is None:
            text = self.log_path.read_text(errors="replace")
            for line in text.splitlines():
                if "listening on http://" in line:
                    self.port = int(line.split("listening on http://", 1)[1]
                                    .split()[0].rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                raise BenchError(f"server exited early:\n{text[-2000:]}")
            if time.monotonic() > deadline:
                raise BenchError("server did not print its address in time")
            time.sleep(0.005)
        status, _ = Client(self.port).request("GET", "/health")
        if status != 200:
            raise BenchError(f"/health answered {status}")

    def kill(self):
        """SIGKILL and reap: for an idle server whose results are fetched."""
        self.proc.kill()
        self.proc.wait()
        self.log.close()

    def stop(self):
        """SIGTERM (the server's graceful drain), then SIGKILL; always reaps."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(15.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class Recorder:
    """Client-side timings and outcomes of the studies in one phase."""

    def __init__(self):
        self.latency_s = []
        self.post_s = []
        self.status_s = []
        self.results_s = []
        self.polls = []
        self.cache_hits = 0
        self.errors = 0
        self.results = []  # (grid, job id, bytes) in send order
        self.windows = []  # (wall start, wall end) per study


def run_study(client, grid, rec: Recorder, poll: bool) -> bool:
    """POST one study, wait for it, fetch its bytes; record everything.

    Returns whether the study delivered result bytes; an error status or
    a failed job counts in ``rec.errors`` and ends the study.
    """
    body = json.dumps(
        {"grid": grid, "evaluator": "cycle", "model": MODEL, "n_shards": 1}
    ).encode()
    wall0 = time.time()
    t0 = time.perf_counter()
    status, data = client.request("POST", "/jobs", body)
    t1 = time.perf_counter()
    rec.post_s.append(t1 - t0)
    if status not in (200, 201):
        rec.errors += 1
        return False
    info = json.loads(data)
    job_id, state = info["id"], info["state"]
    rec.cache_hits += bool(info["cache_hit"])
    polls = 0
    while state not in ("done", "failed"):
        if not poll:
            break
        time.sleep(POLL_S)
        s0 = time.perf_counter()
        status, data = client.request("GET", f"/jobs/{job_id}")
        rec.status_s.append(time.perf_counter() - s0)
        polls += 1
        if status != 200:
            rec.errors += 1
            return False
        state = json.loads(data)["state"]
    if state != "done":
        rec.errors += 1
        return False
    r0 = time.perf_counter()
    status, data = client.request("GET", f"/jobs/{job_id}/results")
    t2 = time.perf_counter()
    if status != 200:
        rec.errors += 1
        return False
    rec.results_s.append(t2 - r0)
    rec.latency_s.append(t2 - t0)
    rec.polls.append(polls)
    rec.windows.append((wall0, time.time()))
    rec.results.append((grid, job_id, data))
    return True


def start_server(workdir, stream, traced_dir=None):
    """Spawn a server, wait for health, finish one warm-up study.

    Returns ``(server, setup seconds, warm-up recorder)``: set-up ends when
    the first useful work — a whole study, which also builds the
    process's workload cache — is done.
    """
    t0 = time.perf_counter()
    server = Server(workdir, traced_dir)
    try:
        server.wait_ready()
        warm = Recorder()
        if not run_study(Client(server.port), stream.next(), warm, poll=True):
            raise BenchError("the warm-up study failed")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0, warm


class Lane:
    """One server inside the timed window, with its own study supply.

    A traced run keeps an untraced and a traced server up side by side
    and alternates :data:`BLOCK_S` blocks between them, so swings in host
    speed fall on both alike and their difference is the tracing cost.
    """

    def __init__(self, kind, opts, stream, name, traced_dir=None):
        self.name, self.work, self.stream = name, opts.work, stream
        server, setup_s, warm = start_server(opts.work / name, stream, traced_dir)
        self.server, self.setup_s, self.warmups = server, [setup_s], warm.results
        self.prepared = []
        self.next_grid = stream.next
        if kind == "serve_cached":
            prep, client = Recorder(), Client(server.port)
            for _ in range(4 if opts.tiny else CACHED_STUDIES):
                if not run_study(client, stream.next(), prep, poll=True):
                    server.stop()
                    raise BenchError("a cached-study preparation failed")
            self.prepared = prep.results
            self.next_grid = itertools.cycle([g for g, _, _ in self.prepared]).__next__
        self.rec = Recorder()
        self.blocks = []  # (seconds, points, server cpu seconds)
        self.peak_rss_mb = 0.0
        self.events = []

    def extra_setup(self):
        """Time one more untraced set-up on a throwaway server, then kill it."""
        workdir = self.work / f"{self.name}-setup-{len(self.setup_s)}"
        server, setup_s, warm = start_server(workdir, self.stream)
        server.kill()
        self.setup_s.append(setup_s)
        self.warmups += warm.results


def closed_loop(lanes, seconds, poll, setups=False) -> dict:
    """One client, one study at a time, for ``seconds``.

    The window is cut into blocks of about :data:`BLOCK_S`, taken in turn
    by the lanes; each lane records ``(seconds, points, server cpu
    seconds)`` per block.  Every lane gets at least four blocks and every
    block at least one study.  With ``setups``, the first lane times
    another set-up after every :data:`SETUP_EVERY` blocks (between blocks,
    so no block pays for it).  Returns elapsed time and host noise.
    """
    clients = [Client(lane.server.port) for lane in lanes]
    block_s = min(BLOCK_S, seconds / (4 * len(lanes)))
    ticks0 = host_ticks()
    t0 = time.perf_counter()
    end = t0 + seconds
    turn = 0
    while turn < len(lanes) or time.perf_counter() < end:
        lane, client = lanes[turn % len(lanes)], clients[turn % len(lanes)]
        turn += 1
        done0, cpu0 = len(lane.rec.latency_s), proc_cpu_s(lane.server.pid)
        b0 = time.perf_counter()
        while True:
            run_study(client, lane.next_grid(), lane.rec, poll)
            if time.perf_counter() >= min(end, b0 + block_s):
                break
        lane.blocks.append((
            time.perf_counter() - b0,
            STUDY_POINTS * (len(lane.rec.latency_s) - done0),
            proc_cpu_s(lane.server.pid) - cpu0,
        ))
        if setups and turn % SETUP_EVERY == 0 and time.perf_counter() < end:
            lanes[0].extra_setup()
    elapsed = time.perf_counter() - t0
    for lane in lanes:
        lane.peak_rss_mb = proc_peak_rss_mb(lane.server.pid)
    noise = host_noise(ticks0, host_ticks())
    return {"elapsed_s": elapsed, "block_s": block_s, **noise}


def latency_summary(rec: Recorder) -> dict:
    """p50/p95 of study latency in ms, with the sample counts behind them.

    The p95 is 0 when fewer than :data:`P95_MIN_BEYOND` samples lie
    beyond it.
    """
    lat = sorted(rec.latency_s)
    p95, beyond = nearest_rank(lat, 95) if lat else (0.0, 0)
    return {"n": len(lat), "p50_ms": 1e3 * median(lat),
            "p95_ms": 1e3 * p95 if beyond >= P95_MIN_BEYOND else 0.0,
            "p95_beyond": beyond}


def read_events(data_dir: Path, window) -> list:
    """Every ``events.jsonl`` record the service wrote inside ``window``."""
    a, b = window
    found = []
    for path in sorted((data_dir / "jobs").glob("*/events.jsonl")):
        for line in path.read_text().splitlines():
            event = json.loads(line)
            if a <= event["t"] <= b:
                found.append({**event, "job": path.parent.name})
    return found


def events_breakdown(events) -> dict:
    """Queue wait, shard and merge time per study from the service's own
    event timestamps (medians, ms), plus retry and append counts."""
    by_job = {}
    for event in events:
        by_job.setdefault(event["job"], {}).setdefault(event["event"], event["t"])
    waits, shards, merges = [], [], []
    for first in by_job.values():
        if {"queued", "shard_started", "shard_finished"} <= set(first):
            waits.append(first["shard_started"] - first["queued"])
            shards.append(first["shard_finished"] - first["shard_started"])
        if {"merging", "done"} <= set(first):
            merges.append(first["done"] - first["merging"])
    return {
        "queue_wait_ms": 1e3 * median(waits),
        "shard_ms": 1e3 * median(shards),
        "merge_ms": 1e3 * median(merges),
        "retries": sum(1 for e in events if e["event"] == "shard_retry"),
        "appends": len(events),
    }


def ledger_totals(data_dir: Path, job_ids) -> dict:
    records = size = 0
    for job_id in job_ids:
        for path in (data_dir / "jobs" / job_id / "store").glob("*.jsonl"):
            records += sum(1 for line in path.read_bytes().splitlines() if line)
            size += path.stat().st_size
    return {"records": records, "bytes": size}


# ----------------------------------------------------------------------
# The two served workloads
# ----------------------------------------------------------------------
def _check(kind, lane, corrupt) -> int:
    """Byte checks outside the timed window; returns the failed count."""
    from .reference import render_study

    failed = 0
    timed = list(lane.rec.results)
    if corrupt and timed:
        grid, job_id, data = timed[0]
        timed[0] = (grid, job_id, bytes([data[0] ^ 0x20]) + data[1:])
    if kind == "serve_fresh":
        owed = lane.warmups + timed
    else:
        owed = lane.warmups + lane.prepared
        first = {job_id: data for _, job_id, data in lane.prepared}
        failed += sum(1 for _, job_id, data in timed if first.get(job_id) != data)
    for grid, _, data in owed:
        if render_study(MODEL, SPARSITY, grid) != data:
            failed += 1
    return failed


def run_serve(kind, opts) -> Outcome:
    stream = StudyStream(opts.seed)
    traced_dir = opts.work / "spans"
    lanes = []
    try:
        lanes.append(Lane(kind, opts, stream, "plain"))
        if opts.trace:
            traced_dir.mkdir(parents=True, exist_ok=True)
            lanes.append(Lane(kind, opts, stream, "traced", traced_dir=traced_dir))
        window = closed_loop(lanes, opts.seconds, poll=kind == "serve_fresh",
                             setups=not opts.trace)
    finally:
        for lane in lanes:
            lane.server.stop()
    for lane in lanes:
        windows = lane.rec.windows
        if windows:
            lane.events = read_events(lane.server.data_dir,
                                      (windows[0][0], windows[-1][1]))
    out = Outcome()
    want_hits = 1.0 if kind == "serve_cached" else 0.0
    for lane in lanes:
        rec = lane.rec
        out.attempted += (len(rec.latency_s) + rec.errors + len(lane.warmups)
                          + len(lane.prepared))
        corrupt = opts.corrupt and lane is lanes[0]
        out.failed += rec.errors + _check(kind, lane, corrupt)
        hits = rec.cache_hits / max(1, len(rec.latency_s))
        out.guards.append((f"serve.cache.hit_ratio is {want_hits:g} (got {hits:g})",
                           hits == want_hits))
    plain = lanes[0]
    rec = plain.rec
    lat = latency_summary(rec)
    rates = [points / secs for secs, points, _ in plain.blocks]
    costs = [1e6 * cpu / points for _, points, cpu in plain.blocks if points]
    points = sum(points for _, points, _ in plain.blocks)
    cpu = sum(cpu for _, _, cpu in plain.blocks)
    out.end_to_end = {
        "setup_s": median(plain.setup_s),
        "latency_p50_ms": lat["p50_ms"],
        "points_per_s": median(rates),
        "cpu_ms_per_kpoint": median(costs),
        "peak_rss_mb": plain.peak_rss_mb,
    }
    out.report += [
        f"studies: {lat['n']} in {window['elapsed_s']:.2f} s (closed loop, "
        + ("1 client, alternating with the traced server)" if opts.trace
           else "1 client)"),
        f"latency_p50_ms n={lat['n']}; latency_p95_ms n={lat['n']} with "
        f"{lat['p95_beyond']} samples beyond"
        + ("" if lat["p95_beyond"] >= P95_MIN_BEYOND
           else " (too few for a p95; reported as 0)"),
        f"points_per_s and cpu_ms_per_kpoint are medians over {len(rates)} blocks "
        f"of ~{window['block_s']:g} s; over the whole window: "
        f"{points / sum(s for s, _, _ in plain.blocks):.1f} 1/s and "
        f"{1e6 * cpu / max(1, points):.1f} ms",
        f"setup_s is the median of {len(plain.setup_s)} set-ups spread over "
        "the run: " + ", ".join(f"{s:.3f}" for s in plain.setup_s),
    ]
    out.per_layer = _serve_layers(lanes, window, traced_dir, out)
    return out


def _serve_layers(lanes, window, traced_dir, out) -> dict:
    """Per-layer metrics: client and event-log figures from the untraced
    server, span figures from the traced one (``--trace 1`` only), whose
    budget table and span counts go into ``out``."""
    plain = lanes[0]
    rec = plain.rec
    studies = max(1, len(rec.latency_s))
    events = events_breakdown(plain.events)
    job_ids = sorted({e["job"] for e in plain.events if e["event"] == "queued"})
    ledger = ledger_totals(plain.server.data_dir, job_ids)
    layers = {
        "latency_p95_ms": latency_summary(rec)["p95_ms"],
        "serve.app.post_ms": 1e3 * median(rec.post_s),
        "serve.app.status_ms": 1e3 * median(rec.status_s),
        "serve.app.results_ms": 1e3 * median(rec.results_s),
        "serve.app.polls_per_study": sum(rec.polls) / studies,
        "serve.app.errors": rec.errors,
        "serve.jobs.queue_wait_ms": events["queue_wait_ms"],
        "serve.jobs.shard_ms": events["shard_ms"],
        "serve.jobs.merge_ms": events["merge_ms"],
        "serve.cache.hit_ratio": rec.cache_hits / studies,
        "obs.events.appends_per_study": events["appends"] / studies,
        "dist.runner.imbalance_s": 0.0,  # one shard per study
        "dist.runner.retries": events["retries"],
        "dist.store.records": ledger["records"] / studies,
        "dist.store.ledger_mb": ledger["bytes"] / 2**20 / studies,
        "harness.serialization.result_kb":
            median([len(d) for _, _, d in rec.results]) / 1024,
        "host.steal_pct": window["steal_pct"],
        "host.busy_pct": window["busy_pct"],
    }
    if len(lanes) == 1:
        return layers
    traced = lanes[1].rec
    trace = trace_report.load(traced_dir)
    out.guards.append(trace_report.recorded(trace, [lanes[1].server.pid]))
    units = max(1, len(traced.windows))
    layers.update(trace_report.span_metrics(trace, traced.windows, units=units))
    budget = trace_report.budget(trace, traced.windows)
    layers.update(trace_report.budget_metrics(budget))
    out.span_counts = {layer: row["count"] for layer, row in budget["layers"].items()}
    plain_p50, traced_p50 = median(rec.latency_s), median(traced.latency_s)
    layers["trace.overhead_pct"] = 100.0 * (traced_p50 - plain_p50) / plain_p50
    out.report += trace_report.format_budget(f"{units} traced studies", budget)
    out.report.append(
        f"tracing overhead: latency_p50_ms {1e3 * plain_p50:.3f} untraced "
        f"(n={len(rec.latency_s)}) -> {1e3 * traced_p50:.3f} traced (n={units})"
    )
    return layers
