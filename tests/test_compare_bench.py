"""The BENCH compare script: ratios, per-entry tolerances, exit status."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks/perf/compare_bench.py"


@pytest.fixture(scope="module")
def compare_bench():
    spec = importlib.util.spec_from_file_location("compare_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench(**entries):
    return {"schema": "repro-bench/1", "mode": "full", "benchmarks": [
        {"name": name, **{variant: {"repeats": 1, "best_s": best,
                                    "mean_s": best, "times_s": [best]}
                          for variant, best in variants.items()},
         "speedup_x": 2.0}
        for name, variants in entries.items()
    ]}


def test_flags_only_variants_past_their_entry_tolerance(compare_bench, capsys):
    old = bench(walk={"batched": 1.0, "loop": 1.0},
                obs_overhead={"enabled": 1.0}, retired={"a": 1.0})
    new = bench(walk={"batched": 1.2, "loop": 1.3},
                obs_overhead={"enabled": 1.9}, added={"a": 1.0})
    flagged = compare_bench.compare(old, new)
    assert [(name, variant) for name, variant, _ in flagged] == [("walk", "loop")]
    out = capsys.readouterr().out
    assert "retired: retired" in out and "added: added" in out
    assert "x 1.200" in out and "x 1.300  <-- SLOWER" in out


def test_exit_status(compare_bench, tmp_path):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(bench(walk={"batched": 1.0})))
    new.write_text(json.dumps(bench(walk={"batched": 1.5})))
    assert compare_bench.main([str(new), "--old", str(old)]) == 1
    assert compare_bench.main([str(old), "--old", str(new)]) == 0  # faster
