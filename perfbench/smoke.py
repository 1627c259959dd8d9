#!/usr/bin/env python3
"""Smoke test of the benchmark itself: about a minute, not an hour.

    python3 perfbench/smoke.py [workload ...]

For each workload (default: all) a tiny run (``--tiny``: small grids, one
set-up) with a one-second window must

* with ``--trace 0`` and ``--trace 1``: exit 0, report zero failed
  operations, and print every end-to-end or per-layer metric of
  ``BENCHMARK.json`` by name with its unit;
* with ``--trace 1``: give every layer the workload runs a non-zero
  share of the traced time;
* with ``--corrupt`` (one result byte flipped before the checks): report
  ``correct: false`` with at least one failed operation, and exit 1.

It also checks ``BENCHMARK.json`` against the workload registry, that a
traced run whose span recorder cannot install (an entry point it wraps
renamed) fails, and that the command exits non-zero, printing no
result, in a directory holding only ``BENCHMARK.json`` and the
benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402


def _run(cwd, workload, *flags):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--tiny", *flags]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc, time.perf_counter() - t0


def _result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_spec(spec, problems):
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(WORKLOADS)}")
    for w in spec["workloads"]:
        if w["name"] in WORKLOADS and w["why"] != WORKLOADS[w["name"]].why:
            problems.append(f"{w['name']}: 'why' differs from workloads.py")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if max(bounds.values()) > 0.25:
        problems.append("an end-to-end bound is above 0.25")
    if bounds.get("setup_s") != max(bounds.values()):
        problems.append("setup_s must carry the largest bound")


def check_runs(spec, workload, problems):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc, seconds = _run(ROOT, workload, "--trace", trace)
        result = _result(proc)
        tag = f"{workload} --trace {trace}"
        print(f"{tag}: exit {proc.returncode} in {seconds:.1f} s")
        if proc.returncode != 0 or not result or not result["correct"]:
            problems.append(f"{tag}: exit {proc.returncode}\n{proc.stdout[-3000:]}"
                            f"{proc.stderr[-3000:]}")
            continue
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            problems.append(f"{tag}: metrics/units differ from BENCHMARK.json: "
                            f"{sorted(set(want.items()) ^ set(got.items()))}")
        for name in want:
            if f"  {name} = " not in proc.stdout:
                problems.append(f"{tag}: {name} is not printed by name")
        if trace == "1":
            silent = [layer for layer in WORKLOADS[workload].traced
                      if not result["metrics"][f"{layer}.share_pct"]["value"] > 0]
            if silent:
                problems.append(f"{tag}: no traced time in {silent}")
    proc, seconds = _run(ROOT, workload, "--corrupt")
    result = _result(proc)
    print(f"{workload} --corrupt: exit {proc.returncode} in {seconds:.1f} s, "
          f"failed={result and result['failed']}")
    if proc.returncode != 1 or not result or result["correct"] or result["failed"] < 1:
        problems.append(f"{workload} --corrupt: the flipped byte went unreported")


def check_broken_recorder(problems):
    """A copy whose recorder wraps a function that does not exist."""
    copy = ROOT / ".perfbench-work" / "smoke-broken"
    shutil.rmtree(copy, ignore_errors=True)
    try:
        skip = shutil.ignore_patterns("__pycache__")
        shutil.copytree(HERE, copy / HERE.name, ignore=skip)
        shutil.copytree(ROOT / "src", copy / "src", ignore=skip)
        shutil.copy(ROOT / "BENCHMARK.json", copy)
        hook = copy / HERE.name / "tracehook" / "sitecustomize.py"
        text = hook.read_text()
        hook.write_text(text.replace('"run_shard")', '"run_shard_renamed")'))
        if hook.read_text() == text:
            problems.append("smoke: could not break the span recorder")
            return
        proc, _ = _run(copy, "serve_fresh", "--trace", "1")
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    result = _result(proc)
    print(f"broken span recorder: exit {proc.returncode}")
    if proc.returncode == 0 or (result and result["correct"]):
        problems.append("a traced run without spans was reported correct")


def check_bare_directory(problems):
    bare = ROOT / ".perfbench-work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc, _ = _run(bare, "serve_fresh")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"bare directory: exit {proc.returncode}")
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("the command must fail, printing nothing, without a program")


def main(argv) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    check_spec(spec, problems)
    for workload in argv or sorted(WORKLOADS):
        check_runs(spec, workload, problems)
    check_broken_recorder(problems)
    check_bare_directory(problems)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
