"""The ``fleet_cycle`` workload: a supervised sharded sweep, then its merge.

One unit of work is one sweep, timed from ``dse-fleet`` launch until
``dse-merge --json`` has written its file.  The fleet runs two
``dse-shard`` subprocesses over a 16 x 16 x 8 x 8 = 16384-point
cycle-accurate DeiT-Base grid, without ``--steal`` (stealing varies the
amount of work from sweep to sweep).  The seed draws the sixteen
``bandwidth_gbps`` values; the other axes are fixed, so every seed costs
the same.  Every sweep gets a fresh store.

CPU time and peak memory come from ``wait4``: a reaped fleet's rusage
covers the shard processes it reaped itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import signal
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
    repro_cmd,
    sut_env,
)

MODEL = "deit-base"
SPARSITY = 0.9
NUM_SHARDS = 2
MAC_LINES = tuple(range(16, 144, 8))
ACT_BUFFER_KB = (32, 48, 64, 96, 128, 192, 256, 384)
AE_COMPRESSION = (None, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
SWEEP_TIMEOUT_S = 60.0


@contextlib.contextmanager
def process_group(cmd, env, stdout, stderr):
    """Popen ``cmd`` in a session of its own; kill the whole group on exit.

    A fleet's shards are its children, so killing the group leaves no
    orphan behind when the benchmark is interrupted or a sweep overruns.
    """
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, stderr=stderr,
                            start_new_session=True)
    try:
        yield proc
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def wait_rusage(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with ``wait4``: ``(exit code, cpu_s, maxrss_mb)``.

    The rusage of a reaped child covers every descendant it reaped
    itself (a fleet's shards), and its ``ru_maxrss`` is the peak of the
    largest of those processes.  Raises :class:`BenchError` after
    ``timeout`` seconds, leaving ``proc`` to :func:`process_group`.
    """
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            raise BenchError(f"{' '.join(proc.args[3:5])} ran over {timeout:.0f}s")
        time.sleep(0.002)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def sweep_grid(seed, tiny=False) -> dict:
    """The seeded grid, in the order the CLI receives its ``--grid`` flags."""
    rng = random.Random(f"fleet-{seed}")
    count = 4 if tiny else 16
    bandwidths = set()
    while len(bandwidths) < count:
        bandwidths.add(round(rng.uniform(24.0, 192.0), 3))
    return {
        "mac_lines": MAC_LINES[::4] if tiny else MAC_LINES,
        "bandwidth_gbps": tuple(sorted(bandwidths)),
        "act_buffer_kb": ACT_BUFFER_KB[:2] if tiny else ACT_BUFFER_KB,
        "ae_compression": AE_COMPRESSION[:2] if tiny else AE_COMPRESSION,
    }


def grid_args(grid) -> list:
    args = []
    for name, values in grid.items():
        spelled = ",".join("none" if v is None else str(v) for v in values)
        args += ["--grid", f"{name}={spelled}"]
    return args


def run_sweep(root: Path, model, grid, traced_dir=None) -> dict:
    """One sweep: fleet, then merge.  Returns its timings and artefacts."""
    root.mkdir(parents=True, exist_ok=True)
    store, merged = root / "store", root / "merged.json"
    env = sut_env(traced_dir)
    with open(root / "fleet.log", "wb") as log:
        launch = time.time()
        t0 = time.perf_counter()
        with process_group(
            repro_cmd("dse-fleet", "--out", store, "--num-shards", NUM_SHARDS,
                      "--evaluator", "cycle", "--models", model,
                      *grid_args(grid), "--json", root / "fleet.json"),
            env, stdout=log, stderr=subprocess.STDOUT,
        ) as fleet:
            code, fleet_cpu, fleet_rss = wait_rusage(fleet, SWEEP_TIMEOUT_S)
        fleet_exit = time.time()
        if code != 0:
            raise BenchError(f"dse-fleet exited {code}; see {root / 'fleet.log'}")
        with process_group(repro_cmd("dse-merge", store, "--json", merged), env,
                           stdout=subprocess.DEVNULL, stderr=log) as merge:
            code, merge_cpu, merge_rss = wait_rusage(merge, SWEEP_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        end = time.time()
    if code != 0:
        raise BenchError(f"dse-merge exited {code}; see {root / 'fleet.log'}")
    shard_last, stamps, retries, records, ledger_bytes = [], [], 0, 0, 0
    for path in sorted(store.glob("*.jsonl")):
        mine = [json.loads(line) for line in path.read_text().splitlines() if line]
        stamps += [r["t"] for r in mine]
        shard_last.append(max(r["t"] for r in mine))
        retries += sum(r.get("r", 0) for r in mine)
        records += len(mine)
        ledger_bytes += path.stat().st_size
    data = merged.read_bytes()
    return {
        "window": (launch, end),
        "elapsed_s": elapsed,
        "setup_s": min(stamps) - launch,
        "cpu_s": fleet_cpu + merge_cpu,
        "peak_rss_mb": max(fleet_rss, merge_rss),
        "restarts": json.loads((root / "fleet.json").read_text())["restarts"],
        "records": records,
        "retries": retries,
        "ledger_mb": ledger_bytes / 2**20,
        "imbalance_s": max(shard_last) - min(shard_last),
        "exit_lag_s": fleet_exit - max(stamps),
        "digest": hashlib.sha256(data).hexdigest(),
        "result_kb": len(data) / 1024,
        "pids": (fleet.pid, merge.pid),
    }


def _sweeps(opts, model, grid, traced_dir=None):
    """The whole number of sweeps that best fills ``opts.seconds``: start
    another while it would end before ``opts.seconds`` plus half a mean
    sweep; at least one per lane.  A traced run alternates
    untraced and traced sweeps, so swings in host speed hit both alike.
    Returns ``(untraced sweeps, traced sweeps, host noise)``."""
    lanes = {"plain": [], "traced": []}
    order = ["plain", "traced"] if traced_dir else ["plain"]
    ticks0 = host_ticks()
    t0 = time.perf_counter()
    turn = 0

    def another():
        elapsed = time.perf_counter() - t0
        return turn < len(order) or elapsed + 0.5 * elapsed / turn <= opts.seconds

    while another():
        name = order[turn % len(order)]
        lanes[name].append(run_sweep(opts.work / f"{name}-{turn}", model, grid,
                                     traced_dir if name == "traced" else None))
        turn += 1
    return lanes["plain"], lanes["traced"], host_noise(ticks0, host_ticks())


def run_fleet_cycle(opts) -> Outcome:
    from .reference import render_study

    model = "deit-tiny" if opts.tiny else MODEL
    grid = sweep_grid(opts.seed, opts.tiny)
    size = 1
    for values in grid.values():
        size *= len(values)
    traced_dir = opts.work / "spans" if opts.trace else None
    if traced_dir:
        traced_dir.mkdir(parents=True, exist_ok=True)
    sweeps, traced, noise = _sweeps(opts, model, grid, traced_dir)

    expected = render_study(model, SPARSITY, grid)
    if opts.corrupt:
        expected = bytes([expected[0] ^ 0x20]) + expected[1:]
    digest = hashlib.sha256(expected).hexdigest()
    out = Outcome()
    for sweep in sweeps + traced:
        out.attempted += 1
        out.failed += sweep["digest"] != digest
        out.guards += [
            (f"dist.store.records is the grid size {size} (got "
             f"{sweep['records']})", sweep["records"] == size),
            (f"dist.fleet.restarts is 0 (got {sweep['restarts']})",
             sweep["restarts"] == 0),
        ]
    latencies = sorted(s["elapsed_s"] for s in sweeps)
    out.end_to_end = {
        "setup_s": median([s["setup_s"] for s in sweeps]),
        "latency_p50_ms": 1e3 * median(latencies),
        "points_per_s": median([size / s["elapsed_s"] for s in sweeps]),
        "cpu_ms_per_kpoint": median([1e6 * s["cpu_s"] / size for s in sweeps]),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in sweeps),
    }
    out.report += [
        f"sweeps: {len(sweeps)} of {size} points in {sum(latencies):.2f} s "
        f"({model}, {NUM_SHARDS} shards, cycle evaluator); points_per_s and "
        "cpu_ms_per_kpoint are medians over sweeps",
        f"latency_p50_ms n={len(sweeps)}: "
        + ", ".join(f"{1e3 * s:.0f}" for s in latencies),
        "setup_s (launch to first ledger record) per sweep: "
        + ", ".join(f"{s['setup_s']:.3f}" for s in sweeps),
        "fleet + merge cpu per sweep: "
        + ", ".join(f"{s['cpu_s']:.2f} s" for s in sweeps),
        f"latency_p95_ms: none from {len(sweeps)} sweeps (a p95 needs 10 "
        "samples beyond it); reported as 0",
    ]
    out.per_layer = _fleet_layers(sweeps, traced, noise, traced_dir, out)
    return out


def _fleet_layers(sweeps, traced, noise, traced_dir, out) -> dict:
    """Per-layer metrics: ledger and timing figures from the untraced
    sweeps, span figures from the traced ones (``--trace 1`` only), whose
    budget table and span counts go into ``out``."""
    layers = {
        "dist.runner.imbalance_s": median([s["imbalance_s"] for s in sweeps]),
        "dist.runner.retries": sum(s["retries"] for s in sweeps) / len(sweeps),
        "dist.store.records": median([s["records"] for s in sweeps]),
        "dist.store.ledger_mb": median([s["ledger_mb"] for s in sweeps]),
        "dist.fleet.exit_lag_s": median([s["exit_lag_s"] for s in sweeps]),
        "dist.fleet.restarts": sum(s["restarts"] for s in sweeps),
        "harness.serialization.result_kb": median([s["result_kb"] for s in sweeps]),
        "host.steal_pct": noise["steal_pct"],
        "host.busy_pct": noise["busy_pct"],
    }
    if not traced:
        return layers
    trace = trace_report.load(traced_dir)
    pids = [pid for sweep in traced for pid in sweep["pids"]]
    out.guards.append(trace_report.recorded(trace, pids))
    windows = [s["window"] for s in traced]
    layers.update(trace_report.span_metrics(trace, windows, units=len(windows)))
    budget = trace_report.budget(trace, windows)
    layers.update(trace_report.budget_metrics(budget))
    out.span_counts = {layer: row["count"] for layer, row in budget["layers"].items()}
    plain_p50 = median([s["elapsed_s"] for s in sweeps])
    traced_p50 = median([s["elapsed_s"] for s in traced])
    layers["trace.overhead_pct"] = 100.0 * (traced_p50 - plain_p50) / plain_p50
    out.report += trace_report.format_budget(f"{len(windows)} sweeps", budget)
    out.report.append(
        f"tracing overhead: latency_p50_ms {1e3 * plain_p50:.0f} untraced "
        f"(n={len(sweeps)}) -> {1e3 * traced_p50:.0f} traced (n={len(windows)})"
    )
    return layers
