"""Tests for the design-space exploration utilities."""

import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from repro.harness import dse as dse_module
from repro.harness.dse import (
    DesignPoint,
    iter_indexed_design_points,
    pareto_frontier,
    sensitivity,
    sweep_design_space,
)
from repro.hw import model_workload
from repro.models import get_config


def grid_point(grid, index):
    """The value tuple of one grid index, as the shards decode it."""
    grid = dse_module.check_grid(grid)
    return dse_module._decode_grid_index(grid, sorted(grid), index)


@pytest.fixture(scope="module")
def small_workload():
    return model_workload(get_config("deit-tiny"), sparsity=0.9)


class TestSweep:
    def test_grid_cross_product(self, small_workload):
        points = sweep_design_space(
            small_workload,
            {"mac_lines": [32, 64], "ae_compression": [None, 0.5]},
        )
        assert len(points) == 4
        params = {p.parameters for p in points}
        assert len(params) == 4

    def test_more_macs_never_slower(self, small_workload):
        points = sweep_design_space(small_workload,
                                    {"mac_lines": [16, 64, 256]})
        seconds = [p.seconds for p in points]
        assert seconds == sorted(seconds, reverse=True)

    def test_more_bandwidth_never_slower(self, small_workload):
        points = sweep_design_space(small_workload,
                                    {"bandwidth_gbps": [19.2, 76.8, 307.2]})
        seconds = [p.seconds for p in points]
        assert seconds[0] >= seconds[1] >= seconds[2]

    def test_buffer_size_helps_big_models(self):
        wl = model_workload(get_config("deit-base"), sparsity=0.9)
        points = sweep_design_space(wl, {"act_buffer_kb": [32, 128, 512]})
        seconds = [p.seconds for p in points]
        # Bigger act buffer -> fewer Q re-streams -> never slower.
        assert seconds[0] >= seconds[1] >= seconds[2]

    def test_unknown_parameter(self, small_workload):
        with pytest.raises(ValueError, match="unknown grid parameter"):
            sweep_design_space(small_workload, {"voltage": [0.9]})

    def test_empty_grid(self, small_workload):
        with pytest.raises(ValueError):
            sweep_design_space(small_workload, {})

    def test_area_proxy_tracks_macs(self, small_workload):
        points = sweep_design_space(small_workload, {"mac_lines": [32, 64]})
        assert points[0].area_proxy == 32 * 8
        assert points[1].area_proxy == 64 * 8


class TestPareto:
    def test_dominated_points_removed(self):
        a = DesignPoint((("x", 1),), seconds=1.0, energy_joules=1.0,
                        area_proxy=1)
        b = DesignPoint((("x", 2),), seconds=2.0, energy_joules=2.0,
                        area_proxy=1)  # dominated by a
        c = DesignPoint((("x", 3),), seconds=0.5, energy_joules=3.0,
                        area_proxy=1)  # trade-off
        frontier = pareto_frontier([a, b, c])
        assert a in frontier and c in frontier and b not in frontier

    def test_empty(self):
        assert pareto_frontier([]) == []

    def test_all_identical_kept(self):
        p = DesignPoint((), 1.0, 1.0, 1)
        assert len(pareto_frontier([p, p, p])) == 3

    @staticmethod
    def _brute_force(points, objectives):
        values = np.array(
            [[getattr(p, o) for o in objectives] for p in points]
        )
        keep = []
        for i, row in enumerate(values):
            dominated = any(
                np.all(q <= row) and np.any(q < row) for q in values
            )
            if not dominated:
                keep.append(points[i])
        return keep

    @pytest.mark.parametrize("n_objectives", [2])
    def test_matches_brute_force_with_ties(self, n_objectives):
        """The sort-based frontier equals the O(n²) dominance scan,
        including duplicated, tied and ±inf coordinates."""
        rng = np.random.default_rng(42)
        objectives = ("seconds", "energy_joules", "area_proxy")[:n_objectives]
        coordinates = [-np.inf, 0.0, 1.0, 2.0, 3.0, 4.0, np.inf]
        for _ in range(200):
            n = int(rng.integers(1, 30))
            vals = rng.choice(coordinates, size=(n, 3))
            points = [
                DesignPoint((("i", i),), seconds=v[0], energy_joules=v[1],
                            area_proxy=v[2])
                for i, v in enumerate(vals)
            ]
            assert (pareto_frontier(points, objectives=objectives)
                    == self._brute_force(points, objectives))

    def test_two_objectives_only(self):
        point = DesignPoint((("i", 0),), 1.0, 1.0, 1)
        with pytest.raises(ValueError, match="two objectives"):
            pareto_frontier([point], objectives=("seconds",))

    def test_preserves_input_order(self):
        points = [
            DesignPoint((("i", 0),), 3.0, 1.0, 1),
            DesignPoint((("i", 1),), 1.0, 3.0, 1),
            DesignPoint((("i", 2),), 2.0, 2.0, 1),
        ]
        assert pareto_frontier(points) == points

    def test_frontier_on_real_sweep(self, small_workload):
        points = sweep_design_space(
            small_workload,
            {"mac_lines": [16, 64, 256], "ae_compression": [None, 0.5]},
        )
        frontier = pareto_frontier(points)
        assert 1 <= len(frontier) <= len(points)
        # The fastest point always survives.
        fastest = min(points, key=lambda p: p.seconds)
        assert fastest in frontier


class TestStreaming:
    """The shard surface, :func:`iter_indexed_design_points`, is lazy."""

    def test_lazy_never_materialises_grid(self, small_workload, monkeypatch):
        """Taking 5 points from an 860-point grid evaluates exactly 5 at
        ``chunksize=1``, and one chunk of 100 at ``chunksize=100`` —
        never the whole grid."""
        from per_point import PerPoint
        from repro.sim import AnalyticalEvaluator

        calls = []
        oracle = PerPoint(AnalyticalEvaluator())

        def counting(workload, config, accel_kwargs):
            calls.append(1)
            return oracle(workload, config, accel_kwargs)

        grid = {"mac_lines": list(range(8, 520, 6)),
                "bandwidth_gbps": [19.2, 76.8],
                "ae_compression": [None, 0.25, 0.3, 0.5, 0.75]}
        taken = list(islice(iter_indexed_design_points(
            small_workload, grid, evaluator=counting, chunksize=1), 5))
        assert len(taken) == 5
        assert len(calls) == 5

        batched = []
        real_chunk = dse_module._evaluate_chunk

        def counting_chunk(workload, base_config, names, chunk, evaluator):
            batched.append(len(chunk))
            return real_chunk(workload, base_config, names, chunk, evaluator)

        monkeypatch.setattr(dse_module, "_evaluate_chunk", counting_chunk)
        taken = list(islice(iter_indexed_design_points(
            small_workload, grid, chunksize=100), 5))
        assert len(taken) == 5
        assert batched == [100]  # one chunk, not 860 points

    def test_empty_grid_raises(self, small_workload):
        with pytest.raises(ValueError):
            next(iter_indexed_design_points(small_workload, {}))

    def test_one_shot_iterable_grid_values(self, small_workload):
        """Grid values that can only be consumed once still sweep fully."""
        eager = sweep_design_space(small_workload, {"mac_lines": [16, 32]})
        from_iter = sweep_design_space(small_workload,
                                       {"mac_lines": iter([16, 32])})
        assert from_iter == eager


class TestSensitivity:
    def test_rows_carry_parameter(self, small_workload):
        rows = sensitivity(small_workload, "mac_lines", [32, 64])
        assert [r["mac_lines"] for r in rows] == [32, 64]
        assert all(r["seconds"] > 0 and r["edp"] > 0 for r in rows)

    def test_ae_compression_sweep(self):
        wl = model_workload(get_config("deit-base"), sparsity=0.9)
        rows = sensitivity(wl, "ae_compression", [None, 0.75, 0.5, 0.25])
        # Stronger compression never increases latency for this
        # memory-pressured model.
        seconds = [r["seconds"] for r in rows]
        assert seconds[0] >= seconds[-1]


class TestGridIndexing:
    """The deterministic grid index is the dist partition key."""

    GRID = {"mac_lines": [16, 32, 64], "bandwidth_gbps": [19.2, 76.8],
            "ae_compression": [None, 0.25, 0.5]}

    def test_size_and_decode_match_product(self):
        from itertools import product

        from repro.harness.dse import grid_size

        names = sorted(self.GRID)
        combos = list(product(*(self.GRID[n] for n in names)))
        assert grid_size(self.GRID) == len(combos) == 18
        for index, combo in enumerate(combos):
            assert grid_point(self.GRID, index) == combo

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError):
            grid_point(self.GRID, 18)
        with pytest.raises(IndexError):
            grid_point(self.GRID, -1)

    def test_empty_values_raise(self):
        from repro.harness.dse import grid_size

        with pytest.raises(ValueError):
            grid_size({"mac_lines": []})

    def test_indexed_iteration_matches_sweep(self, small_workload):
        grid = {"mac_lines": [16, 32, 64], "ae_compression": [None, 0.5]}
        serial = sweep_design_space(small_workload, grid)
        subset = dict(iter_indexed_design_points(small_workload, grid,
                                                 [5, 1, 3]))
        assert subset == {1: serial[1], 3: serial[3], 5: serial[5]}
        everything = dict(iter_indexed_design_points(small_workload, grid))
        assert [everything[i] for i in range(len(serial))] == serial

    def test_keep_failures_yields_them(self, small_workload):
        from repro.harness.dse import PointFailure

        def explode(workload, config, accel_kwargs):
            raise RuntimeError("nope")

        explode.name = "explode"
        pairs = list(iter_indexed_design_points(
            small_workload, {"mac_lines": [16, 32]}, evaluator=explode,
            keep_failures=True,
        ))
        assert [index for index, _ in pairs] == [0, 1]
        assert all(isinstance(res, PointFailure) for _, res in pairs)
        assert all("nope" in res.error for _, res in pairs)


def test_a_sweep_starts_no_process_pool(tmp_path):
    """A sweep scores in one process (a study scales out by sharding):
    after ``python -m repro dse --evaluator cycle``, and with the service
    and the dist layer imported, neither ``multiprocessing`` nor
    ``concurrent.futures`` is loaded."""
    import repro

    code = (
        "import runpy, sys\n"
        "sys.argv = ['repro', 'dse', '--models', 'deit-tiny', '--evaluator',"
        " 'cycle', '--grid', 'mac_lines=16,32', '--json', sys.argv[1]]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "import repro.serve.app, repro.dist\n"
        "print(sorted(name for name in ('multiprocessing', "
        "'concurrent.futures') if name in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    out = tmp_path / "dse.json"
    run = subprocess.run([sys.executable, "-c", code, str(out)], check=True,
                         capture_output=True, text=True, env=env,
                         cwd=str(tmp_path))
    assert out.exists()
    assert run.stdout.strip().splitlines()[-1] == "[]"
