"""Grid-batched analytical DSE: the batch axis must be invisible.

The contract under test: scoring a grid chunk with
``AnalyticalEvaluator.evaluate_batch`` (one numpy walk over a leading
design-point axis) is **bit-for-bit** the per-point route (the same
evaluator behind :class:`per_point.PerPoint`, one ``__call__`` per grid
point) — points, ordering, Pareto frontier, failure attribution, durable
shard records.  Property-tested over random grids of all five sweepable
parameters, invalid resource values included; this is the CI-enforced
guarantee that makes batching an execution detail rather than a model
change.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.harness import dse as dse_module
from repro.harness.dse import (
    iter_indexed_design_points,
    pareto_frontier,
    sensitivity,
    sweep_design_space,
)
from repro.hw import model_workload
from repro.hw.params import VITCOD_DEFAULT
from repro.models import get_config
from repro.sim import (
    AnalyticalEvaluator,
    BatchEvaluator,
    evaluator_from_spec,
    evaluator_spec,
    resolve_evaluator,
)

from per_point import PerPoint


@pytest.fixture(scope="module")
def small_workload():
    return model_workload(get_config("deit-tiny"), sparsity=0.9)


# ----------------------------------------------------------------------
# Random grids over every sweepable parameter
# ----------------------------------------------------------------------
def _has_bad_resource(names, row):
    """Whether a grid row has a non-positive DRAM bandwidth or act buffer."""
    values = dict(zip(names, row))
    return (values.get("bandwidth_gbps", 1) <= 0
            or values.get("act_buffer_kb", 1) <= 0)


def grid_strategy():
    """Random DSE grids: any subset of the five parameters, small value
    lists, including the knobs' edge values (AE off via ``None``, zero
    forwarding, fractional buffer sizes) and the zero and negative
    bandwidths and buffers every route must reject."""
    mac_lines = st.lists(st.integers(2, 512), min_size=1, max_size=3,
                         unique=True)
    bandwidth = st.lists(
        st.sampled_from([-10, 0, 9.6, 19.2, 38.4, 76.8, 153.6, 307.2]),
        min_size=1, max_size=2, unique=True,
    )
    act_buffer = st.lists(st.sampled_from([-8, 0, 0.5, 32, 64, 128, 320, 512]),
                          min_size=1, max_size=2, unique=True)
    ae = st.lists(st.sampled_from([None, 0.25, 0.5, 0.75, 1.0]),
                  min_size=1, max_size=3, unique=True)
    fwd = st.lists(st.sampled_from([0.0, 0.3, 0.9]),
                   min_size=1, max_size=2, unique=True)
    options = {
        "mac_lines": mac_lines,
        "bandwidth_gbps": bandwidth,
        "act_buffer_kb": act_buffer,
        "ae_compression": ae,
        "q_forwarding_hit_rate": fwd,
    }
    return st.sets(
        st.sampled_from(sorted(options)), min_size=1, max_size=5
    ).flatmap(lambda names: st.fixed_dictionaries(
        {name: options[name] for name in names}
    ))


class TestBitExactness:
    @given(grid=grid_strategy())
    @settings(max_examples=40, deadline=None)
    def test_batched_sweep_equals_per_point(self, small_workload, grid):
        """Points, grid ordering and frontier are bit-identical; exactly
        the points with a non-positive bandwidth or buffer are dropped,
        and nothing non-finite or negative is ever scored."""
        from itertools import product

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            per_point = sweep_design_space(
                small_workload, grid, evaluator=PerPoint(AnalyticalEvaluator())
            )
            batched = sweep_design_space(small_workload, grid)
        assert batched == per_point  # DesignPoint eq: every field bit-equal
        assert pareto_frontier(batched) == pareto_frontier(per_point)
        names = sorted(grid)
        rows = list(product(*(grid[n] for n in names)))
        assert len(batched) == sum(
            not _has_bad_resource(names, row) for row in rows
        )
        assert all(math.isfinite(p.seconds) and p.seconds >= 0
                   and math.isfinite(p.energy_joules)
                   and p.energy_joules >= 0 for p in batched)

    @given(grid=grid_strategy())
    @settings(max_examples=15, deadline=None)
    def test_evaluate_batch_matches_call_loop(self, small_workload, grid):
        """The raw batch surface, without the DSE engine in between: a
        batch holding an invalid point raises as a whole, and the valid
        points score exactly as per-point calls do."""
        from itertools import product

        names = sorted(grid)
        rows = list(product(*(grid[n] for n in names)))
        evaluator = AnalyticalEvaluator()
        expected = [
            dse_module._evaluate_design_point(
                small_workload, VITCOD_DEFAULT, names, row, evaluator
            )
            for row in rows
        ]
        failed = [isinstance(e, dse_module.PointFailure) for e in expected]
        assert failed == [_has_bad_resource(names, row) for row in rows]
        if any(failed):
            with pytest.raises(ValueError, match="must be positive"):
                evaluator.evaluate_batch(small_workload, VITCOD_DEFAULT,
                                         names, rows)
        valid = [(row, e) for row, e in zip(rows, expected)
                 if not isinstance(e, dse_module.PointFailure)]
        if not valid:
            return
        batch = evaluator.evaluate_batch(small_workload, VITCOD_DEFAULT,
                                         names, [row for row, _ in valid])
        assert len(batch) == len(valid)
        for (_, point), metrics in zip(valid, batch):
            assert metrics.seconds == point.seconds
            assert metrics.energy_joules == point.energy_joules

    def test_indexed_subset_matches_per_point(self, small_workload):
        grid = {"mac_lines": [16, 32, 64], "ae_compression": [None, 0.5]}
        per_point = dict(iter_indexed_design_points(
            small_workload, grid, [5, 0, 3],
            evaluator=PerPoint(AnalyticalEvaluator()),
        ))
        batched = dict(iter_indexed_design_points(small_workload, grid,
                                                  [5, 0, 3]))
        assert batched == per_point

    def test_parallel_and_forced_pool_match_serial(self, small_workload):
        grid = {"mac_lines": [16, 32, 64], "bandwidth_gbps": [19.2, 76.8]}
        serial = sweep_design_space(small_workload, grid)
        assert sweep_design_space(small_workload, grid, n_jobs=3) == serial
        # An explicit chunk size bypasses the pilot: 6 points over 3
        # workers, one 2-point chunk each.
        assert sweep_design_space(small_workload, grid, n_jobs=3,
                                  chunksize=2) == serial

    def test_explicit_chunksize_matches(self, small_workload):
        grid = {"mac_lines": [16, 32, 64, 128],
                "ae_compression": [None, 0.5]}
        serial = sweep_design_space(small_workload, grid)
        assert sweep_design_space(small_workload, grid,
                                  chunksize=3) == serial
        assert sweep_design_space(small_workload, grid, n_jobs=2,
                                  chunksize=3) == serial

    def test_hybrid_coarse_phase_batches_identically(self, small_workload):
        grid = {"mac_lines": [16, 32, 64], "ae_compression": [None, 0.5]}
        from repro.sim import CycleSimEvaluator, HybridEvaluator

        batched = sweep_design_space(small_workload, grid,
                                     evaluator="hybrid")
        per_point = sweep_design_space(
            small_workload, grid,
            evaluator=HybridEvaluator(
                coarse=PerPoint(AnalyticalEvaluator()),
                fine=PerPoint(CycleSimEvaluator()),
            ),
        )
        assert batched == per_point

    @pytest.mark.parametrize("evaluator", ["analytical", "cycle", "hybrid"])
    def test_non_positive_resources_dropped(self, small_workload, evaluator):
        """A zero or negative bandwidth or buffer is an invalid point for
        every evaluator: only the (76.8 GB/s, 320 KB) point survives,
        instead of a -10 GB/s point topping the frontier."""
        grid = {"bandwidth_gbps": [-10, 0, 76.8],
                "act_buffer_kb": [-8, 0, 320]}
        with pytest.warns(RuntimeWarning, match="must be positive"):
            points = sweep_design_space(small_workload, grid,
                                        evaluator=evaluator)
        assert [dict(p.parameters) for p in points] == \
            [{"act_buffer_kb": 320, "bandwidth_gbps": 76.8}]
        assert all(math.isfinite(p.seconds) and p.seconds > 0
                   and math.isfinite(p.energy_joules)
                   and p.energy_joules > 0 for p in points)

    def test_cli_json_holds_only_valid_points(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "out.json"
        with pytest.warns(RuntimeWarning, match="must be positive"):
            main(["dse", "--models", "deit-tiny",
                  "--grid", "bandwidth_gbps=-10,0,76.8",
                  "--grid", "act_buffer_kb=-8,0,320", "--json", str(out)])
        text = out.read_text()
        assert "Infinity" not in text and "NaN" not in text
        points = json.loads(text)["points"]
        assert [row["parameters"] for row in points] == \
            [{"act_buffer_kb": 320, "bandwidth_gbps": 76.8}]


class TestBatchEngine:
    def test_analytical_default_is_batch_capable(self):
        evaluator = resolve_evaluator(None)
        assert type(evaluator) is AnalyticalEvaluator
        assert isinstance(evaluator, BatchEvaluator)
        assert dse_module._batch_capable(evaluator)
        assert not dse_module._batch_capable(PerPoint(AnalyticalEvaluator()))

    def test_spec_round_trip_shared_with_per_point(self):
        """One class scores both routes, so there is one spec; the
        pre-merge batched name survives only as an alias of it."""
        from repro.sim.evaluator import BatchedAnalyticalEvaluator

        assert BatchedAnalyticalEvaluator is AnalyticalEvaluator
        assert evaluator_spec(AnalyticalEvaluator()) == \
            {"name": "analytical"}
        rebuilt = evaluator_from_spec({"name": "analytical"})
        assert type(rebuilt) is AnalyticalEvaluator

    def test_serial_sweep_uses_batch_calls(self, small_workload,
                                           monkeypatch):
        """The engine really routes chunks through evaluate_batch."""
        calls = []
        real = AnalyticalEvaluator.evaluate_batch

        def spying(self, workload, base_config, names, rows):
            calls.append(len(list(rows)))
            return real(self, workload, base_config, names, rows)

        monkeypatch.setattr(AnalyticalEvaluator, "evaluate_batch", spying)
        grid = {"mac_lines": [16, 32, 64], "ae_compression": [None, 0.5]}
        points = sweep_design_space(small_workload, grid)
        assert len(points) == 6
        assert sum(calls) == 6  # every point scored through the batch axis

    def test_sensitivity_shares_the_batch_path(self, small_workload,
                                               monkeypatch):
        calls = []
        real = AnalyticalEvaluator.evaluate_batch

        def spying(self, workload, base_config, names, rows):
            rows = list(rows)
            calls.append(len(rows))
            return real(self, workload, base_config, names, rows)

        monkeypatch.setattr(AnalyticalEvaluator, "evaluate_batch", spying)
        rows = sensitivity(small_workload, "mac_lines", [16, 32, 64])
        assert sum(calls) == 3  # one batch, not three evaluator calls
        per_point = sensitivity(small_workload, "mac_lines", [16, 32, 64],
                                evaluator=PerPoint(AnalyticalEvaluator()))
        assert rows == per_point

    def test_invalid_point_falls_back_to_per_point_failures(
            self, small_workload):
        """A chunk holding an invalid point (1 MAC line breaks the
        allocator) must fail per point, exactly like the unbatched sweep
        — good points kept, bad point warn-dropped."""
        grid = {"mac_lines": [1, 32, 64]}
        with pytest.warns(RuntimeWarning, match="MAC lines"):
            per_point = sweep_design_space(
                small_workload, grid, evaluator=PerPoint(AnalyticalEvaluator())
            )
        with pytest.warns(RuntimeWarning, match="MAC lines"):
            batched = sweep_design_space(small_workload, grid)
        assert batched == per_point
        assert [p.parameter("mac_lines") for p in batched] == [32, 64]

    def test_invalid_ae_falls_back_per_point(self, small_workload):
        grid = {"ae_compression": [1.5, 0.5]}
        with pytest.warns(RuntimeWarning, match="ae_compression"):
            batched = sweep_design_space(small_workload, grid)
        with pytest.warns(RuntimeWarning, match="ae_compression"):
            per_point = sweep_design_space(
                small_workload, grid, evaluator=PerPoint(AnalyticalEvaluator())
            )
        assert batched == per_point
        assert [p.parameter("ae_compression") for p in batched] == [0.5]

    def test_unknown_parameter_still_raises(self, small_workload):
        with pytest.raises(KeyError):
            sweep_design_space(small_workload, {"voltage": [0.9]})

    def test_batch_size_mismatch_falls_back(self, small_workload):
        """A batch implementation returning the wrong number of results
        is treated as a failed batch (loudly), not silently mis-zipped."""

        class Truncating(AnalyticalEvaluator):
            def evaluate_batch(self, workload, base_config, names, rows):
                return super().evaluate_batch(
                    workload, base_config, names, list(rows)[:-1]
                )

        grid = {"mac_lines": [16, 32, 64]}
        with pytest.warns(RuntimeWarning, match="evaluate_batch failed"):
            points = sweep_design_space(small_workload, grid,
                                        evaluator=Truncating())
        assert points == sweep_design_space(small_workload, grid)

    def test_fallback_is_announced(self, small_workload):
        """A broken batch path must not silently degrade to per-point
        scoring — results would stay bit-identical, hiding the lost
        speedup."""

        class Broken(AnalyticalEvaluator):
            def evaluate_batch(self, workload, base_config, names, rows):
                raise RuntimeError("batch kernel exploded")

        with pytest.warns(RuntimeWarning, match="batch kernel exploded"):
            points = sweep_design_space(small_workload,
                                        {"mac_lines": [16, 32]},
                                        evaluator=Broken())
        assert points == sweep_design_space(small_workload,
                                            {"mac_lines": [16, 32]})

    def test_cli_batch_size_validated(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="batch-size"):
            main(["dse", "--models", "deit-tiny",
                  "--grid", "mac_lines=16,32", "--batch-size", "-1"])
        with pytest.raises(SystemExit, match="batch-size"):
            main(["dse", "--models", "deit-tiny",
                  "--grid", "mac_lines=16,32", "--batch-size", "0"])


class TestSimulateAttentionGrid:
    def test_unknown_column_rejected(self, small_workload):
        from repro.hw.accelerator import ViTCoDAccelerator

        with pytest.raises(ValueError, match="unknown design-point"):
            ViTCoDAccelerator().simulate_attention_grid(
                small_workload, {"voltage": np.array([0.9])}
            )

    def test_mismatched_column_lengths_rejected(self, small_workload):
        from repro.hw.accelerator import ViTCoDAccelerator

        with pytest.raises(ValueError, match="disagree on length"):
            ViTCoDAccelerator().simulate_attention_grid(
                small_workload,
                {"num_mac_lines": np.array([16, 32]),
                 "ae_compression": np.array([0.5])},
            )

    def test_empty_columns_is_own_design_point(self, small_workload):
        from repro.hw.accelerator import ViTCoDAccelerator

        accel = ViTCoDAccelerator()
        seconds, energy = accel.simulate_attention_grid(small_workload, {})
        report = accel.simulate_attention(small_workload)
        assert seconds.shape == (1,) and energy.shape == (1,)
        assert seconds[0] == report.seconds
        assert energy[0] == report.energy_joules

    def test_ablation_flags_respected(self, small_workload):
        """The grid walk inherits non-swept accelerator flags (dataflow,
        two_pronged) from the instance, like per-point construction
        would."""
        from repro.hw.accelerator import ViTCoDAccelerator

        for kwargs in ({"two_pronged": False},
                       {"dataflow": "s_stationary"},
                       {"use_ae": False}):
            accel = ViTCoDAccelerator(**kwargs)
            cols = {"num_mac_lines": np.array([32, 64], dtype=np.int64)}
            seconds, energy = accel.simulate_attention_grid(small_workload,
                                                            cols)
            for i, lines in enumerate((32, 64)):
                from dataclasses import replace

                ref = ViTCoDAccelerator(
                    config=replace(VITCOD_DEFAULT, num_mac_lines=lines),
                    **kwargs,
                ).simulate_attention(small_workload)
                assert seconds[i] == ref.seconds
                assert energy[i] == ref.energy_joules


class TestGridAllocator:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_array_total_lines_matches_scalar(self, data):
        from repro.hw import allocate_mac_lines, allocate_mac_lines_batched

        lines = data.draw(st.lists(st.integers(2, 512), min_size=1,
                                   max_size=4))
        denser = data.draw(st.lists(st.integers(0, 10**9), min_size=1,
                                    max_size=4))
        sparser = data.draw(st.lists(
            st.integers(0, 10**9), min_size=len(denser),
            max_size=len(denser)))
        lines_col = np.array(lines, dtype=np.int64)[:, None]
        d_grid, s_grid = allocate_mac_lines_batched(
            lines_col, np.array(denser), np.array(sparser)
        )
        assert d_grid.shape == (len(lines), len(denser))
        for i, total in enumerate(lines):
            for j, (d, s) in enumerate(zip(denser, sparser)):
                ref = allocate_mac_lines(total, d, s)
                assert (d_grid[i, j], s_grid[i, j]) == \
                    (ref.denser_lines, ref.sparser_lines)

    def test_array_total_lines_below_two_rejected(self):
        from repro.hw import allocate_mac_lines_batched

        with pytest.raises(ValueError, match="at least 2 MAC lines"):
            allocate_mac_lines_batched(np.array([4, 1]), [10], [10])

    def test_huge_workload_fallback_with_array_lines(self):
        from repro.hw import allocate_mac_lines, allocate_mac_lines_batched

        lines = np.array([64, 127], dtype=np.int64)[:, None]
        denser = np.array([10**17, 2**53 + 1])
        sparser = np.array([1, 2**53 - 1])
        d_grid, s_grid = allocate_mac_lines_batched(lines, denser, sparser)
        for i, total in enumerate((64, 127)):
            for j in range(2):
                ref = allocate_mac_lines(total, int(denser[j]),
                                         int(sparser[j]))
                assert (d_grid[i, j], s_grid[i, j]) == \
                    (ref.denser_lines, ref.sparser_lines)


class TestParetoMaskAgreement:
    """Satellite: the O(n log n) 2-D mask vs the pairwise reference on
    duplicated and tied objective values."""

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_sorted_mask_equals_pairwise_with_ties(self, data):
        n = data.draw(st.integers(1, 40))
        # Tiny value alphabet forces duplicate points and per-axis ties.
        values = np.array(
            data.draw(st.lists(
                st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=n, max_size=n,
            )),
            dtype=np.float64,
        )
        sorted_mask = dse_module._pareto_mask_sorted_2d(values)
        pairwise_mask = dse_module._pareto_mask_pairwise(values)
        assert (sorted_mask == pairwise_mask).all()
