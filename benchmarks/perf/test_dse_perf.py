"""Workload-construction and DSE-sweep microbenchmarks.

The DSE benchmark measures the end-to-end cost a sweep actually pays:
cold = rebuild the workload from masks, then evaluate the grid; warm =
the cached workload, then the same sweep.  Workload construction
dominates, which is exactly why :mod:`repro.perf` memoises it.
"""

import os
import sys
from pathlib import Path

from repro.harness.dse import pareto_frontier, sweep_design_space
from repro.hw import model_workload
from repro.models import get_config
from repro.perf import KeyedCache, benchit, cached_model_workload
from repro.sim import AnalyticalEvaluator, CycleSimEvaluator

# The per-point oracles live with the tests (they are not part of the
# package): one call per grid point, lifted into rows by the adapter.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tests"))
from per_point import PerPoint  # noqa: E402


def test_workload_build_cache(bench_recorder, bench_mode):
    """Cold split-and-conquer construction vs a cache hit."""
    full = bench_mode == "full"
    model = "deit-base" if full else "deit-tiny"
    cfg = get_config(model)
    cache = KeyedCache()
    cold = benchit(lambda: model_workload(cfg, sparsity=0.9),
                   name="cold_build", repeats=3 if full else 1, warmup=0)
    cached_model_workload(model, sparsity=0.9, cache=cache)  # prime
    warm = benchit(lambda: cached_model_workload(model, sparsity=0.9,
                                                 cache=cache),
                   name="cache_hit", repeats=5, warmup=1)
    speedup = cold.best / warm.best
    bench_recorder.record(
        "workload_build",
        model=model,
        cold=cold.to_dict(),
        cached=warm.to_dict(),
        speedup_cached=speedup,
    )
    if full:
        assert speedup >= 10.0, f"cache hit only {speedup:.1f}x faster"


def test_dse_sweep_cached(bench_recorder, bench_mode):
    """Full sweep cost: cold build + sweep vs cached workload + sweep."""
    full = bench_mode == "full"
    model = "deit-base" if full else "deit-tiny"
    cfg = get_config(model)
    if full:
        grid = {"mac_lines": [16, 32, 64, 128, 256, 512],
                "bandwidth_gbps": [19.2, 38.4, 76.8, 153.6],
                "ae_compression": [None, 0.5]}
    else:
        grid = {"mac_lines": [32, 64], "ae_compression": [None, 0.5]}

    def cold_sweep():
        wl = model_workload(cfg, sparsity=0.9)
        return sweep_design_space(wl, grid)

    def warm_sweep():
        wl = cached_model_workload(model, sparsity=0.9)
        return sweep_design_space(wl, grid)

    cold = benchit(cold_sweep, name="cold_serial",
                   repeats=3 if full else 1, warmup=0)
    cached_model_workload(model, sparsity=0.9)  # prime the shared cache
    warm = benchit(warm_sweep, name="cached_serial",
                   repeats=5 if full else 1, warmup=1)
    # The cache must not change the answer.
    points_cold = cold_sweep()
    points_warm = warm_sweep()
    assert points_warm == points_cold

    speedup = cold.best / warm.best
    frontier = pareto_frontier(points_warm)
    bench_recorder.record(
        "dse_sweep",
        model=model,
        grid_points=len(points_warm),
        frontier_size=len(frontier),
        cold_serial=cold.to_dict(),
        cached_serial=warm.to_dict(),
        speedup_cached=speedup,
    )
    if full:
        assert speedup >= 2.0, f"cached sweep only {speedup:.1f}x"


def test_batched_analytical_dse(bench_recorder, bench_mode):
    """Grid-batched analytical scoring vs the per-point evaluator loop.

    The same streaming engine runs both: the per-point route (the
    analytical per-layer fold behind the `PerPoint` test oracle) pays one
    Python dispatch, config clone and per-layer report fold per grid
    point; the default batch route (`AnalyticalEvaluator.evaluate_batch`)
    scores bounded chunks of the grid as single (points × layers) numpy
    walks.  Bit-exactness — points,
    ordering, frontier — is asserted before any timing.  The ≥10×
    assertion arms in full mode on a ≥1k-point grid or a ≥4-CPU box (the
    win is single-process vectorization, so grid scale is what exposes
    it); the honest ratio is recorded either way.
    """
    full = bench_mode == "full"
    model = "deit-base" if full else "deit-tiny"
    if full:
        # 8 × 6 × 4 × 3 × 2 = 1152 points: paper-scale enough that the
        # per-point interpreter overhead is the dominant cost.
        grid = {"mac_lines": [8, 16, 32, 64, 128, 256, 384, 512],
                "bandwidth_gbps": [19.2, 38.4, 76.8, 153.6, 307.2, 614.4],
                "act_buffer_kb": [64, 128, 256, 512],
                "ae_compression": [None, 0.25, 0.5],
                "q_forwarding_hit_rate": [0.0, 0.3]}
    else:
        grid = {"mac_lines": [32, 64], "ae_compression": [None, 0.5]}
    wl = cached_model_workload(model, sparsity=0.9)

    per_point_evaluator = PerPoint(AnalyticalEvaluator())
    per_point_points = sweep_design_space(wl, grid,
                                          evaluator=per_point_evaluator)
    batched_points = sweep_design_space(wl, grid)
    # Bit-exactness before timing: same points, same grid order, same
    # frontier — batching must be invisible in the results.
    assert batched_points == per_point_points
    assert pareto_frontier(batched_points) == \
        pareto_frontier(per_point_points)

    repeats = 3 if full else 1
    per_point = benchit(
        lambda: sweep_design_space(wl, grid, evaluator=per_point_evaluator),
        name="per_point_serial", repeats=repeats, warmup=1)
    batched = benchit(
        lambda: sweep_design_space(wl, grid),
        name="batched_serial", repeats=repeats, warmup=1)

    speedup = per_point.best / batched.best
    bench_recorder.record(
        "batched_analytical_dse",
        model=model,
        grid_points=len(batched_points),
        cpu_count=os.cpu_count(),
        per_point_serial=per_point.to_dict(),
        batched_serial=batched.to_dict(),
        speedup_batched=speedup,
    )
    if full and (len(batched_points) >= 1000 or (os.cpu_count() or 1) >= 4):
        assert speedup >= 10.0, f"batched sweep only {speedup:.1f}x"


def test_batched_cycle_dse(bench_recorder, bench_mode):
    """Grid-batched cycle-accurate DSE vs the per-point event-driven loop.

    The tentpole measurement: ``"cycle"`` resolves to `CycleSimEvaluator`,
    whose `evaluate_batch` runs a whole chunk of design points as one grid
    walk (line envelopes built once per MAC-line count, O(rows) per
    point); the per-point route (the `PerPoint` test oracle) runs the same
    walk once per grid point on a cloned config, at P = 1.  Bit-exactness —
    points, grid order, frontier — is asserted before any timing.  The
    ≥5× assertion arms in full mode on a ≥1k-point grid or a ≥4-CPU box;
    the honest ratio is recorded either way.
    """
    full = bench_mode == "full"
    model = "deit-base" if full else "deit-tiny"
    if full:
        # 9 × 6 × 5 × 4 = 1080 points: paper-scale, so the per-point
        # loop's interpreter dispatch and config cloning dominate.
        grid = {"mac_lines": [8, 16, 24, 32, 64, 128, 256, 384, 512],
                "bandwidth_gbps": [19.2, 38.4, 76.8, 153.6, 307.2, 614.4],
                "act_buffer_kb": [32, 64, 128, 256, 512],
                "ae_compression": [None, 0.25, 0.5, 0.75]}
    else:
        grid = {"mac_lines": [32, 64], "ae_compression": [None, 0.5]}
    wl = cached_model_workload(model, sparsity=0.9)

    per_point_evaluator = PerPoint(CycleSimEvaluator())
    per_point_points = sweep_design_space(wl, grid,
                                          evaluator=per_point_evaluator)
    batched_points = sweep_design_space(wl, grid, evaluator="cycle")
    # Bit-exactness before timing: batching must be invisible.
    assert batched_points == per_point_points
    assert pareto_frontier(batched_points) == \
        pareto_frontier(per_point_points)

    repeats = 3 if full else 1
    per_point = benchit(
        lambda: sweep_design_space(wl, grid, evaluator=per_point_evaluator),
        name="per_point_serial", repeats=repeats, warmup=1)
    batched = benchit(
        lambda: sweep_design_space(wl, grid, evaluator="cycle"),
        name="batched_serial", repeats=repeats, warmup=1)

    speedup = per_point.best / batched.best
    bench_recorder.record(
        "batched_cycle_dse",
        model=model,
        grid_points=len(batched_points),
        cpu_count=os.cpu_count(),
        per_point_serial=per_point.to_dict(),
        batched_serial=batched.to_dict(),
        speedup_batched=speedup,
    )
    if full and (len(batched_points) >= 1000 or (os.cpu_count() or 1) >= 4):
        assert speedup >= 5.0, f"batched cycle sweep only {speedup:.1f}x"
