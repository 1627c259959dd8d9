"""The cycle simulator's grid walk, held to its two oracles at every scale.

The walk spends O(rows) per design point: each row's K-load ladder folds
into two upper envelopes of lines in the K-column step, whose intercepts
depend on the MAC-line count alone.  A row whose points' steps no single
line covers (the range straddles the compute/DRAM-bound crossover) is
evaluated directly, per point.  Both routes must give every per-layer
field bit for bit:

* against the grouped-scan walk it replaced (``tests/walk_oracle.py``)
  on paper-scale DeiT-Base chunks: the first 1024-point chunk of each
  shard of a 2-shard, 16384-point fleet grid, and a 1080-point grid;
* against the scalar reference event loop
  (:mod:`repro.hw.cycle_reference`) on sampled paper-scale points, and on
  random tiny workloads whose chunks force the direct route.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dist.sharding import shard_indices
from repro.harness.dse import grid_point
from repro.hw import ModelWorkload, synthetic_attention_workload
from repro.hw import cycle_sim as cycle_sim_module
from repro.hw.cycle_reference import (
    ReferenceCycleSimEvaluator,
    ReferenceCycleSimulator,
)
from repro.hw.cycle_sim import CycleAccurateSimulator, _WALK_FIELDS
from repro.hw.params import VITCOD_DEFAULT
from repro.perf import cached_model_workload
from repro.sim import AnalyticalEvaluator, CycleSimEvaluator, PointEvaluator
from repro.sim.evaluator import dse_grid_columns

from walk_oracle import scan_walk

#: A 16 x 16 x 8 x 8 = 16384-point DeiT-Base grid shaped like a
#: benchmark fleet sweep.  In sorted-name order ``mac_lines`` varies
#: fastest and ``act_buffer_kb`` slowest, so a 1024-point chunk of a
#: strided shard holds 8 MAC-line counts of 128 points each.
FLEET_GRID = {
    "mac_lines": tuple(range(16, 144, 8)),
    "bandwidth_gbps": tuple(round(24.0 + 11.2 * i, 1) for i in range(16)),
    "act_buffer_kb": (32, 48, 64, 96, 128, 192, 256, 384),
    "ae_compression": (None, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
}

#: The 1080-point grid of the ``batched_cycle_dse`` perf benchmark.
BENCH_GRID = {
    "mac_lines": (8, 16, 24, 32, 64, 128, 256, 384, 512),
    "bandwidth_gbps": (19.2, 38.4, 76.8, 153.6, 307.2, 614.4),
    "act_buffer_kb": (32, 64, 128, 256, 512),
    "ae_compression": (None, 0.25, 0.5, 0.75),
}


@pytest.fixture(scope="module")
def deit_base():
    return cached_model_workload("deit-base", sparsity=0.9)


def fleet_chunk(shard):
    """The first 1024 rows of a strided 2-shard split of FLEET_GRID."""
    names = sorted(FLEET_GRID)
    indices = shard_indices(16384, shard)[:1024]
    return names, [grid_point(FLEET_GRID, i) for i in indices]


def bench_rows():
    names = sorted(BENCH_GRID)
    return names, list(itertools.product(*(BENCH_GRID[n] for n in names)))


def walk_both(workload, names, rows):
    """The production walk and the scan oracle on one chunk of rows."""
    sim = CycleAccurateSimulator()
    columns = dse_grid_columns(names, rows, sim.ae_compression)
    return sim._walk(workload, columns), scan_walk(sim, workload, columns)


def assert_fields_identical(got, want):
    (got_fields, got_jobs), (want_fields, want_jobs) = got, want
    assert set(got_fields) == set(want_fields) == set(_WALK_FIELDS)
    for name in _WALK_FIELDS:
        assert got_fields[name].shape == want_fields[name].shape, name
        assert got_fields[name].tobytes() == want_fields[name].tobytes(), name
    assert np.array_equal(got_jobs, want_jobs)


class DirectRows:
    """Wrap the walk's envelope helper and count the rows it sends to the
    direct route (lines that do not cover their row's step range)."""

    def __init__(self, monkeypatch):
        self.rows = 0
        real = cycle_sim_module._envelope_lines

        def counting(intercepts, slopes, lo, hi):
            slope, icpt, covered = real(intercepts, slopes, lo, hi)
            if covered is not None:
                self.rows += int((~covered).sum())
            return slope, icpt, covered

        monkeypatch.setattr(cycle_sim_module, "_envelope_lines", counting)


# ----------------------------------------------------------------------
# Paper scale: the scan oracle on whole chunks, the loop on samples
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shard", ["1/2", "2/2"])
def test_fleet_first_chunk_matches_scan_oracle(deit_base, shard):
    names, rows = fleet_chunk(shard)
    assert len({row[names.index("mac_lines")] for row in rows}) == 8
    assert_fields_identical(*walk_both(deit_base, names, rows))


def test_bench_grid_matches_scan_oracle(deit_base):
    names, rows = bench_rows()
    assert len(rows) == 1080
    assert_fields_identical(*walk_both(deit_base, names, rows))


def test_sampled_paper_scale_points_match_reference_loop(deit_base):
    """Eight DeiT-Base points (both fleet shards, AE on and off, and the
    benchmark grid's extremes) scored in one chunk by the walk and point
    by point by the scalar event loop."""
    names, rows = fleet_chunk("1/2")
    _, rows_2 = fleet_chunk("2/2")
    bench_names, bench = bench_rows()
    assert bench_names == names
    sample = [rows[0], rows[129], rows[700], rows[1023],
              rows_2[5], rows_2[1000], bench[0], bench[-1]]
    expected = PointEvaluator(ReferenceCycleSimEvaluator()).evaluate_batch(
        deit_base, VITCOD_DEFAULT, names, sample
    )
    got = CycleSimEvaluator().evaluate_batch(
        deit_base, VITCOD_DEFAULT, names, sample
    )
    assert got == expected  # EvalMetrics eq: both fields bit-equal


# ----------------------------------------------------------------------
# Empty chunks
# ----------------------------------------------------------------------
def test_empty_chunk_scores_nothing():
    """Zero rows give zero-length arrays and no metrics, on both grid
    evaluators (the rows protocol: one entry per row)."""
    workload = cached_model_workload("deit-tiny", sparsity=0.9)
    totals = CycleAccurateSimulator().simulate_attention_grid(
        workload, {"num_mac_lines": np.array([], dtype=np.int64)}
    )
    for name in _WALK_FIELDS:
        assert totals[name].shape == (0,)
    assert isinstance(totals["jobs_executed"], int)
    for evaluator in (CycleSimEvaluator(), AnalyticalEvaluator()):
        assert evaluator.evaluate_batch(
            workload, VITCOD_DEFAULT, ["mac_lines"], []
        ) == []


# ----------------------------------------------------------------------
# The direct route: chunks whose steps straddle the crossover
# ----------------------------------------------------------------------
def reference_fields(workload, names, rows):
    """Every per-layer field of the scalar loop, as (points x layers)."""
    results = PointEvaluator(
        lambda wl, config, kwargs:
        ReferenceCycleSimulator(config=config, **kwargs).simulate_attention(wl)
    ).evaluate_batch(workload, VITCOD_DEFAULT, names, rows)
    return {
        name: np.array([[getattr(layer, name) for layer in result.per_layer]
                        for result in results], dtype=np.float64)
        for name in _WALK_FIELDS
    }


@st.composite
def tiny_workloads(draw):
    """Small random attention stacks the scalar loop scores in ~1 ms.

    The first layer always has engines with several busy jobs, so at
    0.5 GB/s its rows are DRAM-bound and at 3000 GB/s compute-bound; the
    others may be degenerate (one job, or only zero-product jobs)."""
    layers = [synthetic_attention_workload(
        24, 2, 16, sparsity=0.7, seed=draw(st.integers(0, 2**16))
    )]
    layers += [
        synthetic_attention_workload(
            draw(st.integers(12, 48)), draw(st.integers(1, 3)),
            draw(st.sampled_from([8, 16, 32])),
            sparsity=draw(st.sampled_from([0.5, 0.7, 0.9, 0.95])),
            seed=draw(st.integers(0, 2**16)),
        )
        for _ in range(draw(st.integers(0, 2)))
    ]
    return ModelWorkload(name="tiny", attention_layers=layers,
                         linear_layers=())


def straddling_grids():
    """Grids with DRAM-starved and DRAM-flooded bandwidths at every MAC-line
    count (0.5 and 3000 GB/s, plus random ones), AE on and off."""
    return st.fixed_dictionaries({
        "mac_lines": st.lists(st.integers(2, 256), min_size=1, max_size=2,
                              unique=True),
        "bandwidth_gbps": st.lists(
            st.sampled_from([0.1, 1.2, 9.6, 76.8, 614.4]), max_size=2,
            unique=True,
        ).map(lambda extra: [0.5, 3000.0] + extra),
        "ae_compression": st.lists(st.sampled_from([None, 0.3, 0.5, 1.0]),
                                   min_size=1, max_size=2, unique=True),
    })


@given(workload=tiny_workloads(), grid=straddling_grids())
@settings(max_examples=20, deadline=None)
def test_direct_rows_match_reference_loop(workload, grid):
    names = sorted(grid)
    rows = list(itertools.product(*(grid[n] for n in names)))
    with pytest.MonkeyPatch.context() as monkeypatch:
        direct = DirectRows(monkeypatch)
        sim = CycleAccurateSimulator()
        got, _ = sim._walk(workload,
                           dse_grid_columns(names, rows, sim.ae_compression))
    assert direct.rows > 0, "no row took the direct route"
    want = reference_fields(workload, names, rows)
    for name in _WALK_FIELDS:
        assert got[name].tobytes() == want[name].tobytes(), name


def test_straddling_cli_grid_uses_direct_rows(monkeypatch):
    """The CI smoke grid (deit-tiny, 16 and 64 MAC lines at 0.5, 19.2 and
    3000 GB/s) sends rows to the direct route, and matches the loop."""
    workload = cached_model_workload("deit-tiny", sparsity=0.9)
    grid = {"bandwidth_gbps": (0.5, 19.2, 3000.0), "mac_lines": (16, 64)}
    names = sorted(grid)
    rows = list(itertools.product(*(grid[n] for n in names)))
    direct = DirectRows(monkeypatch)
    got = CycleSimEvaluator().evaluate_batch(workload, VITCOD_DEFAULT,
                                             names, rows)
    assert direct.rows > 0
    assert got == PointEvaluator(ReferenceCycleSimEvaluator()).evaluate_batch(
        workload, VITCOD_DEFAULT, names, rows
    )
