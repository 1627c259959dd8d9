#!/usr/bin/env python3
"""The benchmark's one command: run a workload, check it, print metrics.

    python3 perfbench/run.py --workload serve_fresh --seed 1 --seconds 30 --trace 0

Runs against the real processes of the checkout it sits in (``python -m
repro serve``, ``dse-fleet``, ``dse-merge``) with ``PYTHONPATH=src``.
Every result byte is checked against an in-process render of the same
study after the timed window closes.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Lines before
it report sample counts, the host's CPU steal over the window and, for
traced runs, the per-layer time budget.  Exits 1 when a check failed,
2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    ROOT,
    SRC,
    BenchError,
    Options,
    host_description,
)
from perfbench.workloads import WORKLOADS  # noqa: E402


def _parser():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run an untraced and a traced copy side by "
                             "side and print the per-layer metrics")
    parser.add_argument("--corrupt", action="store_true",
                        help="flip one result byte before the checks "
                             "(they must report a failed operation)")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (seconds, not minutes)")
    return parser


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds the finally blocks that stop servers


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__main__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no program to measure under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    signal.signal(signal.SIGTERM, _terminate)
    # Byte-compile up front, so no set-up ever pays for it.
    compileall.compile_dir(str(SRC), quiet=1)
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench-work" / f"{workload.name}-{os.getpid()}"
    opts = Options(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                   work=work, corrupt=args.corrupt, tiny=args.tiny)
    try:
        outcome = workload.run(opts)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {workload.name}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        for layer in workload.traced:
            count = outcome.span_counts.get(layer, 0)
            outcome.guards.append(
                (f"{layer} has spans in the traced windows (got {count})", count > 0))
    values = {**outcome.per_layer, **outcome.end_to_end}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    section = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    for name in section:
        if name not in values and name not in workload.idle:
            raise BenchError(f"{workload.name} produced no {name}")
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": units[name]}
               for name in section}
    host = host_description()
    for line in outcome.report:
        print(line)
    print(
        f"host: steal_pct={outcome.per_layer['host.steal_pct']:.2f} "
        f"busy_pct={outcome.per_layer['host.busy_pct']:.2f} over the timed "
        f"window; nproc={host['nproc']}; cpu_model={host['cpu_model']}"
    )
    # Every run prints the user-facing figures, gated or not.
    for name in dict.fromkeys([*outcome.end_to_end, *section]):
        print(f"  {name} = {values.get(name, 0.0):.6g} {units[name]}")
    broken = sorted({what for what, ok in outcome.guards if not ok})
    for what in broken:
        print(f"shape guard FAILED: {what}")
    held = sum(ok for _, ok in outcome.guards)
    print(f"checks: {outcome.attempted} operations, {outcome.failed} failed; "
          f"{held}/{len(outcome.guards)} shape guards hold")
    correct = outcome.failed == 0 and not broken
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
