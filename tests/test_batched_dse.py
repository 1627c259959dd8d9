"""Grid-batched analytical DSE: the batch axis must be invisible.

The contract under test: scoring a grid chunk with
``AnalyticalEvaluator.evaluate_batch`` (one numpy walk over a leading
design-point axis) is **bit-for-bit** the per-point oracle (the per-layer
fold behind :class:`per_point.PerPoint`, lifted into rows by the one
adapter, one call per grid point) — points, ordering, Pareto frontier,
failure attribution, durable shard records.  Property-tested over random
in-domain grids of all five sweepable parameters; out-of-domain values
never reach an evaluator (the grid check rejects them).  This is the
CI-enforced guarantee that makes batching an execution detail rather
than a model change.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import analytical_oracle
from repro.harness import dse as dse_module
from repro.harness.dse import (
    iter_indexed_design_points,
    pareto_frontier,
    sensitivity,
    sweep_design_space,
)
from repro.hw import CycleAccurateSimulator, ViTCoDAccelerator, model_workload
from repro.hw.params import VITCOD_DEFAULT
from repro.models import get_config
from repro.sim import (
    AnalyticalEvaluator,
    Evaluator,
    PointEvaluator,
    UnsupportedParameterError,
    evaluator_from_spec,
    evaluator_spec,
    resolve_evaluator,
)

from per_point import PerPoint


@pytest.fixture(scope="module")
def small_workload():
    return model_workload(get_config("deit-tiny"), sparsity=0.9)


class FailingRow:
    """The analytical model with the 32-line row's entry an exception."""

    name = "failing-row"

    def evaluate_batch(self, workload, base_config, names, rows):
        rows = list(rows)
        results = AnalyticalEvaluator().evaluate_batch(
            workload, base_config, names, rows
        )
        return [RuntimeError("row broke") if row == (32,) else result
                for row, result in zip(rows, results)]


def failing_point(workload, config, accel_kwargs):
    """:class:`FailingRow` as a per-point callable (the per-layer fold)."""
    if config.num_mac_lines == 32:
        raise RuntimeError("row broke")
    return PerPoint(AnalyticalEvaluator())(workload, config, accel_kwargs)


# ----------------------------------------------------------------------
# Random grids over every sweepable parameter
# ----------------------------------------------------------------------
def grid_strategy():
    """Random DSE grids: any subset of the five parameters, small value
    lists, including the knobs' in-domain edge values (AE off via
    ``None``, AE 1.0, zero forwarding, fractional buffer sizes that are
    whole bytes, the allocator's 2-line floor)."""
    mac_lines = st.lists(st.integers(2, 512), min_size=1, max_size=3,
                         unique=True)
    bandwidth = st.lists(
        st.sampled_from([9.6, 19.2, 38.4, 76.8, 153.6, 307.2]),
        min_size=1, max_size=2, unique=True,
    )
    act_buffer = st.lists(st.sampled_from([0.5, 32, 64, 128, 320, 512]),
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
        """Points, grid ordering and frontier are bit-identical; every
        point is scored, and nothing non-finite or negative is."""
        from itertools import product

        per_point = sweep_design_space(
            small_workload, grid, evaluator=PerPoint(AnalyticalEvaluator())
        )
        batched = sweep_design_space(small_workload, grid)
        assert batched == per_point  # DesignPoint eq: every field bit-equal
        assert pareto_frontier(batched) == pareto_frontier(per_point)
        assert len(batched) == len(list(product(*grid.values())))
        assert all(math.isfinite(p.seconds) and p.seconds >= 0
                   and math.isfinite(p.energy_joules)
                   and p.energy_joules >= 0 for p in batched)

    @given(grid=grid_strategy())
    @settings(max_examples=15, deadline=None)
    def test_evaluate_batch_matches_call_loop(self, small_workload, grid):
        """The raw rows surface, without the DSE engine in between: one
        batch call scores every row exactly as the per-point oracle's
        call loop (lifted by the adapter) does."""
        from itertools import product

        names = sorted(grid)
        rows = list(product(*(grid[n] for n in names)))
        expected = PointEvaluator(PerPoint(AnalyticalEvaluator())) \
            .evaluate_batch(small_workload, VITCOD_DEFAULT, names, rows)
        batch = AnalyticalEvaluator().evaluate_batch(
            small_workload, VITCOD_DEFAULT, names, rows
        )
        assert len(batch) == len(expected) == len(rows)
        assert batch == expected  # EvalMetrics eq: both fields bit-equal

    def test_indexed_subset_matches_per_point(self, small_workload):
        grid = {"mac_lines": [16, 32, 64], "ae_compression": [None, 0.5]}
        per_point = dict(iter_indexed_design_points(
            small_workload, grid, [5, 0, 3],
            evaluator=PerPoint(AnalyticalEvaluator()),
        ))
        batched = dict(iter_indexed_design_points(small_workload, grid,
                                                  [5, 0, 3]))
        assert batched == per_point

    def test_explicit_chunksize_matches(self, small_workload):
        """8 points in chunks of 3 (the last one short) give the default
        chunk's points, under both built-in evaluators."""
        grid = {"mac_lines": [16, 32, 64, 128],
                "ae_compression": [None, 0.5]}
        for evaluator in ("analytical", "cycle"):
            serial = sweep_design_space(small_workload, grid,
                                        evaluator=evaluator)
            assert sweep_design_space(small_workload, grid, chunksize=3,
                                      evaluator=evaluator) == serial

    def test_cycle_sweep_batches_identically(self, small_workload):
        grid = {"mac_lines": [16, 32, 64], "ae_compression": [None, 0.5]}
        from repro.sim import CycleSimEvaluator

        batched = sweep_design_space(small_workload, grid, evaluator="cycle")
        per_point = sweep_design_space(
            small_workload, grid, evaluator=PerPoint(CycleSimEvaluator())
        )
        assert batched == per_point

    @pytest.mark.parametrize("evaluator", ["analytical", "cycle"])
    def test_non_positive_resources_rejected(self, small_workload,
                                             evaluator):
        """A zero or negative bandwidth or buffer is outside its knob's
        domain for every evaluator: the grid raises naming the value
        before anything is scored, instead of a -10 GB/s point topping
        the frontier."""
        grid = {"bandwidth_gbps": [-10, 0, 76.8],
                "act_buffer_kb": [-8, 0, 320]}
        with pytest.raises(ValueError, match=r"'bandwidth_gbps' value -10"):
            sweep_design_space(small_workload, grid, evaluator=evaluator)
        del grid["bandwidth_gbps"]
        with pytest.raises(ValueError, match=r"'act_buffer_kb' value -8"):
            sweep_design_space(small_workload, grid, evaluator=evaluator)
        points = sweep_design_space(
            small_workload, {"bandwidth_gbps": [76.8],
                             "act_buffer_kb": [320]}, evaluator=evaluator
        )
        assert [dict(p.parameters) for p in points] == \
            [{"act_buffer_kb": 320, "bandwidth_gbps": 76.8}]
        assert all(math.isfinite(p.seconds) and p.seconds > 0
                   and math.isfinite(p.energy_joules)
                   and p.energy_joules > 0 for p in points)

    def test_cli_json_holds_only_valid_points(self, tmp_path):
        """An out-of-domain grid exits with one line and writes no JSON;
        the in-domain grid's JSON holds only finite, valid points."""
        from repro.cli import main

        out = tmp_path / "out.json"
        with pytest.raises(SystemExit, match=r"'bandwidth_gbps' value -10"):
            main(["dse", "--models", "deit-tiny",
                  "--grid", "bandwidth_gbps=-10,0,76.8",
                  "--grid", "act_buffer_kb=320", "--json", str(out)])
        assert not out.exists()
        main(["dse", "--models", "deit-tiny",
              "--grid", "bandwidth_gbps=76.8",
              "--grid", "act_buffer_kb=320", "--json", str(out)])
        text = out.read_text()
        assert "Infinity" not in text and "NaN" not in text
        points = json.loads(text)["points"]
        assert [row["parameters"] for row in points] == \
            [{"act_buffer_kb": 320, "bandwidth_gbps": 76.8}]


class TestBatchEngine:
    def test_analytical_default_is_batch_capable(self):
        evaluator = resolve_evaluator(None)
        assert type(evaluator) is AnalyticalEvaluator
        assert isinstance(evaluator, Evaluator)
        assert resolve_evaluator(evaluator) is evaluator
        oracle = PerPoint(AnalyticalEvaluator())
        lifted = resolve_evaluator(oracle)
        assert type(lifted) is PointEvaluator and lifted.point is oracle

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
        """A chunk holding a row its evaluator cannot score fails that
        row alone — one per-point failure, attributed exactly as a
        raising per-point callable's — good points kept, bad point
        warn-dropped."""
        grid = {"mac_lines": [16, 32, 64]}
        with pytest.warns(RuntimeWarning, match="RuntimeError: row broke"):
            batched = sweep_design_space(small_workload, grid,
                                         evaluator=FailingRow())
        with pytest.warns(RuntimeWarning, match="RuntimeError: row broke"):
            per_point = sweep_design_space(small_workload, grid,
                                           evaluator=failing_point)
        assert batched == per_point
        assert [p.parameter("mac_lines") for p in batched] == [16, 64]
        records = [
            dict(iter_indexed_design_points(small_workload, grid,
                                            evaluator=evaluator,
                                            keep_failures=True))[1]
            for evaluator in (FailingRow(), failing_point)
        ]
        assert records[0] == records[1]
        assert records[0].error == "RuntimeError: row broke"

    def test_invalid_ae_rejected(self, small_workload):
        """An AE ratio outside (0, 1] is a grid error, not a point."""
        with pytest.raises(ValueError,
                           match=r"'ae_compression' value 1.5: ae_compression"):
            sweep_design_space(small_workload, {"ae_compression": [1.5, 0.5]})

    def test_unknown_parameter_still_raises(self, small_workload):
        with pytest.raises(ValueError, match="unknown grid parameter"):
            sweep_design_space(small_workload, {"voltage": [0.9]})

    def test_batch_size_mismatch_falls_back(self, small_workload):
        """A batch implementation returning the wrong number of results
        is treated as a failed call (loudly: every row of the chunk
        fails), not silently mis-zipped."""

        class Truncating(AnalyticalEvaluator):
            def evaluate_batch(self, workload, base_config, names, rows):
                return super().evaluate_batch(
                    workload, base_config, names, list(rows)[:-1]
                )

        grid = {"mac_lines": [16, 32, 64]}
        with pytest.warns(RuntimeWarning,
                          match="evaluate_batch returned 2 results"):
            points = sweep_design_space(small_workload, grid,
                                        evaluator=Truncating())
        assert points == []

    def test_raising_call_fails_every_row(self, small_workload):
        """An exception out of the call fails each row of its chunk (with
        the per-point failure text), and only that chunk."""

        class Broken(AnalyticalEvaluator):
            def evaluate_batch(self, workload, base_config, names, rows):
                rows = list(rows)
                if any(row[0] == 16 for row in rows):
                    raise RuntimeError("batch kernel exploded")
                return super().evaluate_batch(workload, base_config, names,
                                              rows)

        grid = {"mac_lines": [16, 32, 64]}
        with pytest.warns(RuntimeWarning,
                          match="RuntimeError: batch kernel exploded"):
            points = sweep_design_space(small_workload, grid,
                                        evaluator=Broken(), chunksize=2)
        assert [p.parameter("mac_lines") for p in points] == [64]
        assert points == sweep_design_space(small_workload,
                                            {"mac_lines": [64]})

    def test_cli_batch_size_validated(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="batch-size"):
            main(["dse", "--models", "deit-tiny",
                  "--grid", "mac_lines=16,32", "--batch-size", "-1"])
        with pytest.raises(SystemExit, match="batch-size"):
            main(["dse", "--models", "deit-tiny",
                  "--grid", "mac_lines=16,32", "--batch-size", "0"])


#: Both grid walks; one ``design_columns`` resolves their columns, so
#: each resolver behaviour is one test over both.
WALKS = (ViTCoDAccelerator, CycleAccurateSimulator)

#: One out-of-domain value per column both walks model, beside an
#: in-domain one: the whole chunk is refused.
OUT_OF_DOMAIN = [
    ("num_mac_lines", [16, 1], "at least 2 MAC lines"),
    ("dram_bandwidth_bytes_per_s", [76.8e9, 0.0], "finite and positive"),
    ("act_buffer_bytes", [1024, 0], "whole, positive number of bytes"),
    ("use_ae", [True, 2], "use_ae must be True or False"),
    ("ae_compression", [0.5, 1.5], r"ae_compression must be in \(0, 1\]"),
]


class TestSimulateAttentionGrid:
    def test_unknown_column_rejected(self, small_workload):
        with pytest.raises(UnsupportedParameterError,
                           match="unknown design-point column"):
            ViTCoDAccelerator().simulate_attention_grid(
                small_workload, {"voltage": np.array([0.9])}
            )

    def test_mismatched_column_lengths_rejected(self, small_workload):
        with pytest.raises(ValueError, match="disagree on length"):
            ViTCoDAccelerator().simulate_attention_grid(
                small_workload,
                {"num_mac_lines": np.array([16, 32]),
                 "ae_compression": np.array([0.5])},
            )

    @pytest.mark.parametrize("column, values, message", OUT_OF_DOMAIN,
                             ids=[case[0] for case in OUT_OF_DOMAIN])
    def test_out_of_domain_column_rejected(self, small_workload, column,
                                           values, message):
        for walk in WALKS:
            with pytest.raises(ValueError, match=message):
                walk().simulate_attention_grid(
                    small_workload, {column: np.array(values)}
                )

    def test_out_of_domain_default_rejected(self, small_workload):
        """An unswept knob broadcasts the walk's own value, which is
        checked like a swept one."""
        config = replace(VITCOD_DEFAULT, num_mac_lines=1)
        for walk in WALKS:
            with pytest.raises(ValueError, match="at least 2 MAC lines"):
                walk(config=config).simulate_attention_grid(
                    small_workload, {"act_buffer_bytes": np.array([1024])}
                )

    def test_empty_columns_is_own_design_point(self, small_workload):
        """No columns is the accelerator's own design point, P = 1, equal
        to its independent scalar oracle."""
        seconds, energy = ViTCoDAccelerator().simulate_attention_grid(
            small_workload, {}
        )
        report = analytical_oracle.fold(ViTCoDAccelerator(), small_workload)
        assert seconds.tolist() == [report.seconds]
        assert energy.tolist() == [report.energy_joules]

    def test_ablation_flags_respected(self, small_workload):
        """The grid walk inherits non-swept accelerator flags (dataflow,
        two_pronged) from the instance, like per-point construction
        would."""
        for kwargs in ({"two_pronged": False},
                       {"dataflow": "s_stationary"},
                       {"use_ae": False}):
            accel = ViTCoDAccelerator(**kwargs)
            cols = {"num_mac_lines": np.array([32, 64], dtype=np.int64)}
            seconds, energy = accel.simulate_attention_grid(small_workload,
                                                            cols)
            for i, lines in enumerate((32, 64)):
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
        less_eq = np.all(values[:, None, :] <= values[None, :, :], axis=2)
        strictly = np.any(values[:, None, :] < values[None, :, :], axis=2)
        pairwise_mask = ~np.any(less_eq & strictly, axis=0)
        assert (sorted_mask == pairwise_mask).all()
