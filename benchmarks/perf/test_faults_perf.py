"""Fault-injection overhead: chaos hooks must be (near) free when off.

Same methodology as ``obs_overhead``: three timings of the same sharded
run — the ledger write path (:mod:`repro.ledger`) is where the disabled
hooks live (``active_plan()`` consulted per record append and per fsync
barrier):

* ``unhooked`` — the floor: ``active_plan`` swapped for an inert stub
  inside the ledger module, so the hot path pays only the call the hooks
  added;
* ``disabled`` — the shipped default: no plan active, every hook takes
  the thread-local ``None`` branch;
* ``active`` — a zero-fault plan activated (scope bound, every rate 0),
  the cost of merely *carrying* a plan through a healthy run.

The ``faults_overhead`` entry in ``BENCH_perf.json`` records all three;
full mode asserts disabled stays under 3% of the floor and the active
plan under 10% — the same "no-op until opted in" contract as
:mod:`repro.obs`.  As there, the variants are timed interleaved, one
call of each per round, and the gate compares their medians.
"""

import contextlib
import math
import os
import statistics
import tempfile

import pytest

import repro.ledger as ledger_mod
from repro.dist import merge_store, model_workload_spec, run_shard
from repro.faults import activate, plan_from_spec
from repro.harness.dse import sweep_design_space
from repro.perf import BenchResult, Timer, cached_model_workload


@pytest.fixture
def store_root():
    """Where the timed runs' stores go: a memory-backed directory where
    the host has one.  A disk fsync's latency moves by tens of percent
    from call to call and would decide the gate, while the hooks under
    test are CPU work on every append and fsync barrier."""
    memory = "/dev/shm" if os.path.isdir("/dev/shm") else None
    with tempfile.TemporaryDirectory(dir=memory) as root:
        yield root


def test_faults_overhead(bench_recorder, bench_mode, monkeypatch, tmp_path,
                         store_root):
    full = bench_mode == "full"
    model = "deit-tiny"
    if full:
        # 6 x 5 x 4 x 3 x 3 = 1080 records through the append path.
        grid = {
            "mac_lines": [16, 32, 64, 128, 256, 512],
            "bandwidth_gbps": [19.2, 38.4, 76.8, 153.6, 307.2],
            "act_buffer_kb": [64, 128, 256, 512],
            "ae_compression": [None, 0.5, 0.25],
            "q_forwarding_hit_rate": [0.0, 0.3, 0.6],
        }
    else:
        grid = {"mac_lines": [32, 64], "ae_compression": [None, 0.5]}
    grid_points = math.prod(len(v) for v in grid.values())
    spec = model_workload_spec(model, sparsity=0.9)
    workload = cached_model_workload(model, sparsity=0.9)
    expected = sweep_design_space(workload, grid)
    rounds = 60 if full else 3

    def sharded_run():
        # A fresh store per call: resume-skipping would otherwise turn
        # every repeat after the first into a no-op.
        store = tempfile.mkdtemp(dir=store_root)
        run_shard(workload, grid, "1/1", store, workload_spec=spec)
        return store

    assert list(merge_store(sharded_run()).points) == expected
    plan = plan_from_spec({"seed": 0}).scoped(tmp_path)
    with activate(plan):
        # A carried plan never alters results.
        assert list(merge_store(sharded_run()).points) == expected

    @contextlib.contextmanager
    def unhooked():
        with monkeypatch.context() as mp:
            mp.setattr(ledger_mod, "active_plan", lambda: None)
            yield

    variants = {
        "unhooked": unhooked,
        "disabled": contextlib.nullcontext,
        "active": lambda: activate(plan),
    }
    names = list(variants)
    times = {name: [] for name in names}
    for round_ in range(rounds + 1):  # the first round warms up
        # Each round starts one variant later, so every variant runs in
        # every position of the round equally often.
        shift = round_ % len(names)
        for name in names[shift:] + names[:shift]:
            with variants[name](), Timer() as timer:
                sharded_run()
            if round_:
                times[name].append(timer.seconds)

    median = {name: statistics.median(t) for name, t in times.items()}
    overhead_disabled = median["disabled"] / median["unhooked"] - 1.0
    overhead_active = median["active"] / median["unhooked"] - 1.0
    bench_recorder.record(
        "faults_overhead",
        model=model,
        grid_points=grid_points,
        **{name: BenchResult(name, t, rounds).to_dict()
           for name, t in times.items()},
        overhead_disabled=overhead_disabled,
        overhead_active=overhead_active,
    )
    if full:
        assert overhead_disabled < 0.03, (
            f"disabled fault hooks cost {overhead_disabled:.1%} (>3%)"
        )
        assert overhead_active < 0.10, (
            f"a zero-fault plan costs {overhead_active:.1%} (>10%)"
        )
