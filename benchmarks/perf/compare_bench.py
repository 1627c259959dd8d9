"""Compare a regenerated ``BENCH_perf.json`` with a committed one.

Prints, for every benchmark entry and every timed variant in it, the
ratio of the new ``best_s`` to the old one, and each headline
``speedup_*`` field old -> new.  A variant whose ratio exceeds
``1 + tolerance`` is flagged as slower; the tolerance is per entry
(:data:`TOLERANCES`, default :data:`DEFAULT_TOLERANCE`), wider for the
entries whose timings are known to move with host noise.  Entries present
in only one file are listed as added or retired.

Run from anywhere, after a full-mode regeneration::

    python benchmarks/perf/compare_bench.py BENCH_perf.json
    python benchmarks/perf/compare_bench.py new.json --old old.json

The old file defaults to ``git show HEAD:BENCH_perf.json`` in this
repository.  Exits 1 when any variant is flagged, 0 otherwise; ratios
are only meaningful between files generated on the same machine.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

#: A variant is flagged when new best_s / old best_s > 1 + tolerance.
DEFAULT_TOLERANCE = 0.25

#: Per-entry tolerances.  The overhead entries time ~10-50 ms sweeps, the
#: serving and sharding entries time process spawns and sockets: their
#: best_s moves by tens of percent between idle runs of the same code.
TOLERANCES = {
    "obs_overhead": 1.0,
    "faults_overhead": 1.0,
    "serve_load": 1.0,
    "dist_shard_scaling": 0.5,
    "dist_work_stealing": 0.5,
}


def load_old(args) -> dict:
    if args.old:
        return json.loads(Path(args.old).read_text())
    shown = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "show", "HEAD:BENCH_perf.json"],
        check=True, capture_output=True, text=True,
    )
    return json.loads(shown.stdout)


def entries(bench: dict) -> dict:
    return {entry["name"]: entry for entry in bench["benchmarks"]}


def timed(entry: dict) -> dict:
    """The entry's timed variants: ``{variant: best_s}``."""
    return {key: value["best_s"] for key, value in entry.items()
            if isinstance(value, dict) and "best_s" in value}


def speedups(entry: dict) -> dict:
    return {key: value for key, value in entry.items()
            if key.startswith("speedup") and isinstance(value, (int, float))}


def compare(old: dict, new: dict) -> list:
    """Print the comparison; return the flagged ``(entry, variant, ratio)``."""
    old_entries, new_entries = entries(old), entries(new)
    flagged = []
    for name in sorted(set(old_entries) | set(new_entries)):
        if name not in new_entries:
            print(f"{name}: retired (only in the old file)")
            continue
        if name not in old_entries:
            print(f"{name}: added (only in the new file)")
            continue
        tolerance = TOLERANCES.get(name, DEFAULT_TOLERANCE)
        print(f"{name} (tolerance +{tolerance:.0%}):")
        old_times, new_times = timed(old_entries[name]), timed(new_entries[name])
        for variant in sorted(set(old_times) | set(new_times)):
            if variant not in old_times or variant not in new_times:
                side = "new" if variant in new_times else "old"
                print(f"  {variant:28s} only in the {side} file")
                continue
            ratio = new_times[variant] / old_times[variant]
            mark = ""
            if ratio > 1.0 + tolerance:
                flagged.append((name, variant, ratio))
                mark = "  <-- SLOWER"
            print(f"  {variant:28s} {old_times[variant]:10.5f} s -> "
                  f"{new_times[variant]:10.5f} s  x{ratio:6.3f}{mark}")
        old_up, new_up = speedups(old_entries[name]), speedups(new_entries[name])
        for key in sorted(set(old_up) & set(new_up)):
            print(f"  {key:28s} {old_up[key]:10.3f}   -> {new_up[key]:10.3f}")
    return flagged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("new", help="the regenerated BENCH file")
    parser.add_argument("--old", help="compare against this file instead "
                                      "of git show HEAD:BENCH_perf.json")
    args = parser.parse_args(argv)
    new = json.loads(Path(args.new).read_text())
    old = load_old(args)
    for bench, label in ((old, "old"), (new, "new")):
        print(f"{label}: mode={bench.get('mode')} python={bench.get('python')} "
              f"machine={bench.get('machine')}")
    flagged = compare(old, new)
    if flagged:
        print(f"\n{len(flagged)} variant(s) slower than their tolerance:")
        for name, variant, ratio in flagged:
            print(f"  {name}.{variant}: x{ratio:.3f}")
        return 1
    print("\nno variant slower than its tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
