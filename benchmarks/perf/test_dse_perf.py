"""Workload-construction and DSE-sweep microbenchmarks.

The DSE benchmark measures the end-to-end cost a sweep actually pays:
cold = rebuild the workload from masks, then evaluate the grid serially;
warm = cached workload + ``n_jobs`` worker fan-out.  Workload construction
dominates, which is exactly why :mod:`repro.perf` memoises it.
"""

import os
import sys
from pathlib import Path

from repro.harness.dse import grid_size, pareto_frontier, sweep_design_space
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


def test_dse_sweep_cached_parallel(bench_recorder, bench_mode):
    """Full sweep cost: cold build + serial grid vs cached + parallel grid."""
    full = bench_mode == "full"
    model = "deit-base" if full else "deit-tiny"
    cfg = get_config(model)
    if full:
        grid = {"mac_lines": [16, 32, 64, 128, 256, 512],
                "bandwidth_gbps": [19.2, 38.4, 76.8, 153.6],
                "ae_compression": [None, 0.5]}
    else:
        grid = {"mac_lines": [32, 64], "ae_compression": [None, 0.5]}
    n_jobs = 4 if full else 2

    def cold_sweep():
        wl = model_workload(cfg, sparsity=0.9)
        return sweep_design_space(wl, grid)

    def warm_sweep():
        wl = cached_model_workload(model, sparsity=0.9)
        return sweep_design_space(wl, grid, n_jobs=n_jobs)

    cold = benchit(cold_sweep, name="cold_serial",
                   repeats=3 if full else 1, warmup=0)
    cached_model_workload(model, sparsity=0.9)  # prime the shared cache
    warm = benchit(warm_sweep, name="cached_parallel",
                   repeats=5 if full else 1, warmup=1)
    # Parallel + cached must not change the answer.
    points_cold = cold_sweep()
    points_warm = warm_sweep()
    assert points_warm == points_cold

    speedup = cold.best / warm.best
    frontier = pareto_frontier(points_warm)
    bench_recorder.record(
        "dse_sweep",
        model=model,
        grid_points=len(points_warm),
        n_jobs=n_jobs,
        frontier_size=len(frontier),
        cold_serial=cold.to_dict(),
        cached_parallel=warm.to_dict(),
        speedup_cached_parallel=speedup,
    )
    if full:
        assert speedup >= 2.0, f"cached+parallel sweep only {speedup:.1f}x"


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
    whose `evaluate_batch` runs a whole chunk of design points as one
    (points × layers × jobs) width-banded max-plus walk; the per-point
    route (the `PerPoint` test oracle) runs the same walk once per grid
    point on a cloned config, at P = 1.  Bit-exactness —
    points, grid order, frontier — is asserted before any timing.  The
    hybrid sweep rides along: the analytical prune plus the batched fine
    re-score.  The ≥5× assertion arms in full mode on a ≥1k-point grid
    or a ≥4-CPU box; the honest ratio is recorded either way.
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
    hybrid_points = sweep_design_space(wl, grid, evaluator="hybrid")

    repeats = 3 if full else 1
    per_point = benchit(
        lambda: sweep_design_space(wl, grid, evaluator=per_point_evaluator),
        name="per_point_serial", repeats=repeats, warmup=1)
    batched = benchit(
        lambda: sweep_design_space(wl, grid, evaluator="cycle"),
        name="batched_serial", repeats=repeats, warmup=1)
    hybrid = benchit(
        lambda: sweep_design_space(wl, grid, evaluator="hybrid"),
        name="hybrid_serial", repeats=repeats, warmup=1)

    speedup = per_point.best / batched.best
    bench_recorder.record(
        "batched_cycle_dse",
        model=model,
        grid_points=len(batched_points),
        cpu_count=os.cpu_count(),
        survivors=len(hybrid_points),
        per_point_serial=per_point.to_dict(),
        batched_serial=batched.to_dict(),
        hybrid_serial=hybrid.to_dict(),
        speedup_batched=speedup,
        speedup_hybrid_vs_batched_cycle=batched.best / hybrid.best,
    )
    if full and (len(batched_points) >= 1000 or (os.cpu_count() or 1) >= 4):
        assert speedup >= 5.0, f"batched cycle sweep only {speedup:.1f}x"


def test_cycle_sim_dse(bench_recorder, bench_mode):
    """Cycle-accurate sweeps through the evaluator-pluggable engine.

    Three strategies over the same grid: the full event-driven sweep run
    serially, the same sweep fanned across workers, and the hybrid sweep
    (analytical prune, cycle-accurate re-score of the surviving frontier).
    The hybrid win scales with grid size over frontier size; the parallel
    ratio is recorded honestly — cycle-sim points are cheap
    enough (~1 ms) that pool overhead can eat the fan-out on small grids.
    """
    full = bench_mode == "full"
    model = "deit-base" if full else "deit-tiny"
    if full:
        grid = {"mac_lines": [16, 32, 64, 128, 256, 512],
                "bandwidth_gbps": [19.2, 38.4, 76.8, 153.6],
                "ae_compression": [None, 0.5]}
    else:
        grid = {"mac_lines": [32, 64], "ae_compression": [None, 0.5]}
    n_jobs = 4 if full else 2
    wl = cached_model_workload(model, sparsity=0.9)
    # Per-point cycle points: the regime this entry has always timed.
    evaluator = PerPoint(CycleSimEvaluator())

    serial_points = sweep_design_space(wl, grid, evaluator=evaluator)
    hybrid_points = sweep_design_space(wl, grid, evaluator="hybrid")
    # Sanity before timing: parallel == serial, hybrid == the cycle-scored
    # analytical frontier (a subset of the full cycle sweep's grid).
    assert sweep_design_space(wl, grid, evaluator=evaluator,
                              n_jobs=n_jobs) == serial_points
    assert sweep_design_space(wl, grid, evaluator="hybrid",
                              n_jobs=n_jobs) == hybrid_points
    assert {p.parameters for p in hybrid_points} <= \
        {p.parameters for p in serial_points}

    repeats = 3 if full else 1
    serial = benchit(
        lambda: sweep_design_space(wl, grid, evaluator=evaluator),
        name="cycle_serial", repeats=repeats, warmup=1)
    # Raw pool fan-out (an explicit chunk size bypasses the pilot; one
    # chunk per worker): the number that exposed the cheap-point
    # regression — cycle points cost ~1 ms, so pool dispatch eats the
    # fan-out on grids this small.
    per_worker = -(-grid_size(grid) // n_jobs)
    forced = benchit(
        lambda: sweep_design_space(wl, grid, evaluator=evaluator,
                                   n_jobs=n_jobs, chunksize=per_worker),
        name="cycle_parallel_forced", repeats=repeats, warmup=1)
    # The adaptive default pilots the first chunk and stays serial when
    # the whole sweep is cheaper than spawning workers, so n_jobs > 1 is
    # no longer a footgun on cheap grids (the fix for the ~0.7× above).
    adaptive = benchit(
        lambda: sweep_design_space(wl, grid, evaluator=evaluator,
                                   n_jobs=n_jobs),
        name="cycle_parallel_adaptive", repeats=repeats, warmup=1)
    # Hybrid runs serially: the analytical prune costs well under a
    # millisecond per point, so pool overhead would swamp the phase-1 win
    # (fan-out pays off once per-point cost dwarfs worker dispatch).
    hybrid = benchit(
        lambda: sweep_design_space(wl, grid, evaluator="hybrid"),
        name="hybrid_serial", repeats=repeats, warmup=1)

    bench_recorder.record(
        "cycle_sim_dse",
        model=model,
        grid_points=len(serial_points),
        survivors=len(hybrid_points),
        n_jobs=n_jobs,
        cycle_serial=serial.to_dict(),
        cycle_parallel_forced=forced.to_dict(),
        cycle_parallel_adaptive=adaptive.to_dict(),
        hybrid_serial=hybrid.to_dict(),
        speedup_parallel_forced=serial.best / forced.best,
        speedup_parallel_adaptive=serial.best / adaptive.best,
        speedup_hybrid_vs_full_cycle=serial.best / hybrid.best,
    )
    if full:
        speedup = serial.best / hybrid.best
        assert speedup >= 2.0, f"hybrid sweep only {speedup:.2f}x"
        # The adaptive path must never lose much to the serial sweep:
        # its pilot is one chunk of real work plus one timing call.
        adaptive_ratio = serial.best / adaptive.best
        assert adaptive_ratio >= 0.8, \
            f"adaptive n_jobs sweep regressed to {adaptive_ratio:.2f}x"
