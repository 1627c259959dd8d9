"""Tests for the design-space exploration utilities."""

from itertools import islice

import numpy as np
import pytest

from repro.harness import dse as dse_module
from repro.harness.dse import (
    DesignPoint,
    ParetoFront,
    iter_design_space,
    pareto_frontier,
    sensitivity,
    sweep_design_space,
)
from repro.hw import model_workload
from repro.models import get_config


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


class TestParallelSweep:
    GRID = {"mac_lines": [16, 32, 64], "ae_compression": [None, 0.5]}

    def test_parallel_equals_serial(self, small_workload):
        serial = sweep_design_space(small_workload, self.GRID)
        parallel = sweep_design_space(small_workload, self.GRID, n_jobs=3)
        assert parallel == serial  # same points, same (grid) order

    def test_n_jobs_clamped_to_grid(self, small_workload):
        points = sweep_design_space(small_workload, {"mac_lines": [32]},
                                    n_jobs=8)
        assert len(points) == 1

    def test_n_jobs_none_uses_cpus(self, small_workload):
        points = sweep_design_space(small_workload, self.GRID, n_jobs=None)
        assert points == sweep_design_space(small_workload, self.GRID)

    def test_sensitivity_parallel(self, small_workload):
        serial = sensitivity(small_workload, "mac_lines", [32, 64])
        parallel = sensitivity(small_workload, "mac_lines", [32, 64], n_jobs=2)
        assert parallel == serial


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

    @pytest.mark.parametrize("n_objectives", [2, 3])
    def test_matches_brute_force_with_ties(self, n_objectives):
        """The sort-based frontier equals the O(n²) dominance scan,
        including duplicated and tied coordinates."""
        rng = np.random.default_rng(42)
        objectives = ("seconds", "energy_joules", "area_proxy")[:n_objectives]
        for _ in range(50):
            n = int(rng.integers(1, 30))
            vals = rng.integers(0, 5, size=(n, 3)).astype(float)
            points = [
                DesignPoint((("i", i),), seconds=v[0], energy_joules=v[1],
                            area_proxy=v[2])
                for i, v in enumerate(vals)
            ]
            assert (pareto_frontier(points, objectives=objectives)
                    == self._brute_force(points, objectives))

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


def _params_key(point):
    return repr(point.parameters)


class TestStreaming:
    GRID = {"mac_lines": [16, 32, 64], "ae_compression": [None, 0.5]}

    def test_serial_stream_equals_eager_sweep(self, small_workload):
        eager = sweep_design_space(small_workload, self.GRID)
        streamed = list(iter_design_space(small_workload, self.GRID))
        assert streamed == eager  # same points, same (grid) order

    def test_parallel_stream_same_multiset(self, small_workload):
        eager = sweep_design_space(small_workload, self.GRID)
        streamed = list(iter_design_space(small_workload, self.GRID,
                                          n_jobs=3))
        assert sorted(streamed, key=_params_key) == \
            sorted(eager, key=_params_key)

    def test_lazy_never_materialises_grid(self, small_workload, monkeypatch):
        """Taking 5 points from an 864-point grid evaluates exactly 5 at
        ``chunksize=1``, and at most one default chunk otherwise — never
        the whole grid."""
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
        taken = list(islice(iter_design_space(
            small_workload, grid, evaluator=counting, chunksize=1), 5))
        assert len(taken) == 5
        assert len(calls) == 5

        batched = []
        real_chunk = dse_module._evaluate_chunk

        def counting_chunk(workload, base_config, names, chunk, evaluator):
            batched.append(len(chunk))
            return real_chunk(workload, base_config, names, chunk, evaluator)

        monkeypatch.setattr(dse_module, "_evaluate_chunk", counting_chunk)
        taken = list(islice(iter_design_space(small_workload, grid), 5))
        assert len(taken) == 5
        assert sum(batched) <= dse_module._BATCH_CHUNK  # one chunk, not 864

    def test_incremental_frontier_matches_eager(self, small_workload):
        eager = sweep_design_space(small_workload, self.GRID)
        front = ParetoFront()
        yielded = list(iter_design_space(small_workload, self.GRID,
                                         frontier=front))
        assert front.points == pareto_frontier(eager)
        assert front.offered == len(eager)
        # Every yielded point was non-dominated when it arrived, and the
        # final frontier is a subset of what was yielded.
        assert all(p in eager for p in yielded)
        assert all(p in yielded for p in front.points)

    def test_parallel_frontier_matches_eager(self, small_workload):
        eager = sweep_design_space(small_workload, self.GRID)
        front = ParetoFront()
        list(iter_design_space(small_workload, self.GRID, n_jobs=2,
                               frontier=front))
        assert (sorted(front.points, key=_params_key)
                == sorted(pareto_frontier(eager), key=_params_key))

    def test_empty_grid_raises(self, small_workload):
        with pytest.raises(ValueError):
            next(iter_design_space(small_workload, {}))

    def test_one_shot_iterable_grid_values(self, small_workload):
        """Grid values that can only be consumed once still sweep fully."""
        eager = sweep_design_space(small_workload, {"mac_lines": [16, 32]})
        from_iter = sweep_design_space(small_workload,
                                       {"mac_lines": iter([16, 32])})
        assert from_iter == eager


class TestParetoFront:
    def _point(self, i, seconds, energy):
        return DesignPoint((("i", i),), seconds=seconds,
                           energy_joules=energy, area_proxy=1)

    def test_dominated_offer_rejected(self):
        front = ParetoFront()
        assert front.offer(self._point(0, 1.0, 1.0))
        assert not front.offer(self._point(1, 2.0, 2.0))
        assert len(front) == 1

    def test_new_point_evicts_dominated(self):
        front = ParetoFront()
        front.offer(self._point(0, 2.0, 2.0))
        front.offer(self._point(1, 3.0, 1.0))
        assert front.offer(self._point(2, 1.0, 1.0))  # dominates both
        assert [p.parameter("i") for p in front] == [2]

    def test_duplicates_all_kept(self):
        front = ParetoFront()
        p = self._point(0, 1.0, 1.0)
        assert front.offer(p) and front.offer(p) and front.offer(p)
        assert len(front) == 3  # equal points never dominate each other

    def test_matches_eager_on_random_streams(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            vals = rng.integers(0, 5, size=(n, 2)).astype(float)
            points = [self._point(i, v[0], v[1]) for i, v in enumerate(vals)]
            front = ParetoFront().update(points)
            assert front.points == pareto_frontier(points)

    def test_three_objectives(self):
        points = [
            DesignPoint((("i", 0),), 1.0, 2.0, 3.0),
            DesignPoint((("i", 1),), 2.0, 1.0, 3.0),
            DesignPoint((("i", 2),), 2.0, 2.0, 4.0),  # dominated by 0 and 1
        ]
        objectives = ("seconds", "energy_joules", "area_proxy")
        front = ParetoFront(objectives=objectives).update(points)
        assert front.points == pareto_frontier(points, objectives=objectives)


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

        from repro.harness.dse import grid_point, grid_size

        names = sorted(self.GRID)
        combos = list(product(*(self.GRID[n] for n in names)))
        assert grid_size(self.GRID) == len(combos) == 18
        for index, combo in enumerate(combos):
            assert grid_point(self.GRID, index) == combo

    def test_out_of_range_raises(self):
        from repro.harness.dse import grid_point

        with pytest.raises(IndexError):
            grid_point(self.GRID, 18)
        with pytest.raises(IndexError):
            grid_point(self.GRID, -1)

    def test_empty_values_raise(self):
        from repro.harness.dse import grid_size

        with pytest.raises(ValueError):
            grid_size({"mac_lines": []})

    def test_indexed_iteration_matches_sweep(self, small_workload):
        from repro.harness.dse import iter_indexed_design_points

        grid = {"mac_lines": [16, 32, 64], "ae_compression": [None, 0.5]}
        serial = sweep_design_space(small_workload, grid)
        subset = dict(iter_indexed_design_points(small_workload, grid,
                                                 [5, 1, 3]))
        assert subset == {1: serial[1], 3: serial[3], 5: serial[5]}
        everything = dict(iter_indexed_design_points(small_workload, grid))
        assert [everything[i] for i in range(len(serial))] == serial

    def test_hybrid_rejected(self, small_workload):
        from repro.harness.dse import iter_indexed_design_points

        with pytest.raises(ValueError, match="hybrid"):
            next(iter_indexed_design_points(small_workload,
                                            {"mac_lines": [16]},
                                            evaluator="hybrid"))

    def test_keep_failures_yields_them(self, small_workload):
        from repro.harness.dse import PointFailure, \
            iter_indexed_design_points

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


class TestAdaptiveSweep:
    """Cheap sweeps stay serial; forced pools still match bit for bit."""

    GRID = {"mac_lines": [16, 32, 64], "ae_compression": [None, 0.5]}

    def test_cheap_grid_never_spawns_pool(self, small_workload, monkeypatch):
        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("pool spawned for a trivially cheap sweep")

        monkeypatch.setattr(dse_module, "ProcessPoolExecutor", forbidden)
        monkeypatch.setattr(dse_module, "ThreadPoolExecutor", forbidden)
        serial = sweep_design_space(small_workload, self.GRID)
        adaptive = sweep_design_space(small_workload, self.GRID, n_jobs=3)
        assert adaptive == serial

    def test_forced_pool_matches_serial(self, small_workload):
        serial = sweep_design_space(small_workload, self.GRID)
        # An explicit chunk size bypasses the pilot and forces the pool.
        forced = sweep_design_space(small_workload, self.GRID, n_jobs=3,
                                    chunksize=2)
        assert forced == serial

    def test_plan_parallel_math(self):
        from repro.harness.dse import _plan_parallel

        # Remaining work cheaper than the pool (0.25 s): serial.
        assert _plan_parallel(0.001, 46, 4) == (1, 46)
        # Expensive points: one point per chunk for balance.
        assert _plan_parallel(0.2, 46, 4) == (4, 1)
        # Cheap points, big grid: chunks target ~50 ms of work.
        n_jobs, chunk = _plan_parallel(0.002, 1000, 4)
        assert n_jobs == 4 and chunk == 25
        # Never exceeds the one-chunk-per-worker split.
        n_jobs, chunk = _plan_parallel(0.001, 400, 4)
        assert chunk <= -(-400 // 4)
        # Nothing left: serial, floor chunk of 1.
        assert _plan_parallel(0.5, 0, 4) == (1, 1)

    def test_pilot_failures_still_warn_and_drop(self, small_workload):
        from per_point import PerPoint
        from repro.sim import AnalyticalEvaluator

        oracle = PerPoint(AnalyticalEvaluator())

        def flaky(workload, config, accel_kwargs):
            if config.num_mac_lines == 16:
                raise RuntimeError("pilot boom")
            return oracle(workload, config, accel_kwargs)

        flaky.name = "flaky"
        with pytest.warns(RuntimeWarning, match="pilot boom"):
            points = sweep_design_space(small_workload, self.GRID,
                                        n_jobs=2, evaluator=flaky)
        # Both poisoned points (one of them a pilot) dropped, rest kept.
        assert len(points) == 4
        assert all(p.parameter("mac_lines") != 16 for p in points)

    def test_cheap_hybrid_grid_never_spawns_pool(self, small_workload,
                                                 monkeypatch):
        """The adaptive pilot covers the hybrid coarse phase too."""

        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("pool spawned for a cheap hybrid sweep")

        monkeypatch.setattr(dse_module, "ProcessPoolExecutor", forbidden)
        monkeypatch.setattr(dse_module, "ThreadPoolExecutor", forbidden)
        serial = sweep_design_space(small_workload, self.GRID,
                                    evaluator="hybrid")
        adaptive = sweep_design_space(small_workload, self.GRID, n_jobs=3,
                                      evaluator="hybrid")
        assert adaptive == serial

    def test_forced_hybrid_pool_matches_serial(self, small_workload):
        serial = sweep_design_space(small_workload, self.GRID,
                                    evaluator="hybrid")
        forced = sweep_design_space(small_workload, self.GRID, n_jobs=3,
                                    evaluator="hybrid", chunksize=2)
        assert forced == serial
