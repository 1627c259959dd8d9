"""Chaos suite: a seeded fault storm must not change a single byte.

Each test runs a real supervised fleet (:func:`repro.dist.run_fleet` —
forked shards, each running ``dse-shard`` through the CLI's ``main``,
relaunched when they crash or when their ledgers go stale) under a
deterministic fault plan, then asserts the merged study is **bit for
bit** identical to the healthy serial sweep's JSON document.  That is
the whole robustness contract in one assertion: retries, steal
takeovers, torn-tail repair and supervisor relaunches are allowed to
cost time, never correctness.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.dist import merge_store, run_fleet
from repro.harness.dse import sweep_design_space
from repro.harness.serialization import dse_result_payload, to_json
from repro.perf import cached_model_workload
from repro.sim.evaluator import resolve_evaluator

GRID = {"mac_lines": (16, 32, 64), "ae_compression": (None, 0.5)}
GRID_ARGS = ["--grid", "mac_lines=16,32,64", "--grid",
             "ae_compression=none,0.5"]

#: One storm, every failure mode: ~seeded transient errors on half the
#: points, one torn write, one fsync error, one SIGKILL after the second
#: durable record, and one 4s in-point hang (killed by --hang-after).
STORM = {
    "seed": 7,
    "evaluator_error_rate": 0.5,
    "torn_write": True,
    "fsync_error": True,
    "kill_after_records": 2,
}


def _healthy_json(model, evaluator_name):
    workload = cached_model_workload(model, sparsity=0.9)
    points = sweep_design_space(
        workload, GRID, evaluator=resolve_evaluator(evaluator_name)
    )
    return to_json(
        dse_result_payload(model, 0.9, evaluator_name, GRID, points)
    )


def _merged_json(store, model, evaluator_name):
    merged = merge_store(store)
    return to_json(dse_result_payload(
        model, 0.9, evaluator_name,
        {k: tuple(v) for k, v in merged.manifest["grid"].items()},
        list(merged.points),
    ))


def _storm_fleet(store, evaluator_name, storm, num_shards=3, hang_after=2.0):
    shard_args = [
        "--models", "deit-tiny", "--sparsity", "0.9",
        "--evaluator", evaluator_name, *GRID_ARGS,
        "--steal", "--claim-ttl", "2",
        "--faults", json.dumps(storm),
    ]

    def shard(spec):  # python -m repro dse-shard, as shard spec of store
        return main(["dse-shard", "--shard", str(spec), "--out", str(store),
                     *shard_args])

    return run_fleet(
        store, num_shards, shard,
        hang_after=hang_after, max_restarts=5,
    )


@pytest.mark.parametrize("evaluator_name", ["analytical", "cycle"])
def test_storm_is_bit_identical_to_healthy_run(tmp_path, evaluator_name):
    store = tmp_path / "store"
    fleet = _storm_fleet(store, evaluator_name, STORM)
    assert fleet.complete, "the fleet must converge despite the storm"
    assert fleet.restarts > 0, "the storm should have drawn blood"
    assert _merged_json(store, "deit-tiny", evaluator_name) == \
        _healthy_json("deit-tiny", evaluator_name)


def test_hang_is_killed_and_absorbed(tmp_path):
    """A one-shot in-point hang goes stale and draws a SIGKILL relaunch."""
    store = tmp_path / "store"
    storm = {"seed": 7, "evaluator_hang_s": 30.0}
    fleet = _storm_fleet(store, "analytical", storm, hang_after=1.5)
    assert fleet.complete
    assert fleet.hang_kills >= 1
    assert _merged_json(store, "deit-tiny", "analytical") == \
        _healthy_json("deit-tiny", "analytical")


def test_fleet_cli_round_trip(tmp_path):
    """dse-fleet + dse-merge --json == dse --json, via real CLI processes."""
    store = tmp_path / "store"
    healthy = tmp_path / "healthy.json"
    merged = tmp_path / "merged.json"
    base = [sys.executable, "-m", "repro"]
    env = dict(os.environ)
    package_root = str(Path(repro.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if "PYTHONPATH" in env else [])
    )
    common = ["--models", "deit-tiny", *GRID_ARGS]
    subprocess.run(base + ["dse", *common, "--json", str(healthy)],
                   check=True, capture_output=True, cwd=str(tmp_path),
                   env=env)
    run = subprocess.run(
        base + ["dse-fleet", "--out", str(store), "--num-shards", "2",
                "--steal", "--max-restarts", "5", *common,
                "--faults", json.dumps(STORM),
                "--json", str(tmp_path / "fleet.json")],
        check=True, capture_output=True, text=True, cwd=str(tmp_path),
        env=env, timeout=300,
    )
    assert "store complete" in run.stdout
    fleet_info = json.loads((tmp_path / "fleet.json").read_text())
    assert fleet_info["complete"] and fleet_info["restarts"] > 0
    subprocess.run(base + ["dse-merge", str(store), "--json", str(merged)],
                   check=True, capture_output=True, cwd=str(tmp_path),
                   env=env)
    assert healthy.read_bytes() == merged.read_bytes()
