"""Shared plumbing: host noise, process CPU/RSS, percentiles, subprocesses.

Everything here reads ``/proc`` or the standard library only; nothing
imports the package under test, so the load generator stays cheap while
the timed window runs.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACEHOOK = Path(__file__).resolve().parent / "tracehook"
CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, dead server, ...)."""


# ----------------------------------------------------------------------
# Host noise: /proc/stat over the timed window
# ----------------------------------------------------------------------
def host_ticks() -> list:
    """The aggregate ``cpu`` line of ``/proc/stat`` as integers."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return [int(v) for v in fields[1:]]


def host_noise(before: list, after: list) -> dict:
    """Steal and busy shares of all CPUs between two :func:`host_ticks`.

    Fields: user nice system idle iowait irq softirq steal (guest time is
    already inside user).  Busy is everything but idle, iowait and steal.
    """
    delta = [b - a for a, b in zip(before[:8], after[:8])]
    total = sum(delta) or 1
    idle, iowait, steal = delta[3], delta[4], delta[7]
    return {
        "steal_pct": 100.0 * steal / total,
        "busy_pct": 100.0 * (total - idle - iowait - steal) / total,
    }


def host_description() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model}


# ----------------------------------------------------------------------
# Processes of the system under test
# ----------------------------------------------------------------------
def proc_cpu_s(pid: int) -> float:
    """user + sys CPU seconds of a live process (all its threads)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (stat field 3): utime/stime are fields 14/15.
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def sut_env(traced_dir=None) -> dict:
    """Environment for a process of the system under test.

    ``traced_dir`` puts the benchmark's span recorder on the path: its
    ``sitecustomize`` is imported by every Python process started with
    this environment, the shard subprocesses a fleet spawns included.
    """
    env = dict(os.environ)
    path = [str(SRC)]
    env.pop("PERFBENCH_TRACE_DIR", None)
    if traced_dir is not None:
        path.insert(0, str(TRACEHOOK))
        env["PERFBENCH_TRACE_DIR"] = str(traced_dir)
    env["PYTHONPATH"] = os.pathsep.join(path)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def repro_cmd(*args) -> list:
    return [sys.executable, "-m", "repro", *[str(a) for a in args]]


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def nearest_rank(sorted_values, q: float):
    """The ``q`` percentile by nearest rank and the samples beyond it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(q / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def median(values):
    return statistics.median(values) if values else 0.0


@dataclass
class Options:
    """One invocation of a workload (see ``run.py`` for the flags)."""

    seed: int
    seconds: float
    trace: bool
    work: Path  # scratch directory inside the checkout, removed afterwards
    corrupt: bool = False  # flip one result byte before checking
    tiny: bool = False  # smoke-test sizes: small grids, one set-up


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    end_to_end: dict = field(default_factory=dict)  # name -> value
    per_layer: dict = field(default_factory=dict)  # name -> value
    report: list = field(default_factory=list)  # human-readable lines
    #: Shape guards: (what the workload must look like, whether it did).
    guards: list = field(default_factory=list)
    #: ``--trace 1``: spans per layer inside the traced windows.
    span_counts: dict = field(default_factory=dict)
