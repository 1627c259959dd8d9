"""Grid-batched cycle-accurate DSE: the batch axis must be invisible.

The contract under test: scoring a grid chunk with
``CycleSimEvaluator.evaluate_batch`` (one grid walk over the chunk) is
**bit-for-bit** the scalar reference loop scored point
by point (``ReferenceCycleSimEvaluator``, lifted into rows by the one
adapter) — points, ordering, Pareto frontier, failure attribution,
structural rejections.  Property-tested over random in-domain grids of
every parameter the cycle simulator models, on a
small synthetic model so the slow reference loop stays cheap; plus the
width-band sub-batching invariants.  This is the CI-enforced guarantee
that makes batching an execution detail rather than a model change.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.dse import (
    iter_indexed_design_points,
    pareto_frontier,
    sweep_design_space,
)
from repro.hw import (
    AttentionWorkload,
    HeadWorkload,
    ModelWorkload,
    dense_attention_workload,
    model_workload,
    synthetic_attention_workload,
)
from repro.hw.params import VITCOD_DEFAULT
from repro.hw import cycle_sim as cycle_sim_module
from cycle_reference import (
    ReferenceCycleSimEvaluator,
    ReferenceCycleSimulator,
)
from repro.hw.cycle_sim import (
    _WALK_FIELDS,
    CycleAccurateSimulator,
    _width_bands,
)
from repro.models import get_config
from repro.sim import (
    CycleSimEvaluator,
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


@pytest.fixture(scope="module")
def tiny_workload():
    """Mixed shapes and sparsities, small enough that the reference loop
    scores a point in about a millisecond; the last two layers have no
    sparser jobs and no jobs at all (the walk's empty-engine paths)."""
    no_jobs = AttentionWorkload(
        num_tokens=8, num_heads=1, head_dim=4,
        heads=[HeadWorkload(
            num_tokens=8, head_dim=4, num_global_tokens=0, denser_nnz=0,
            sparser_nnz=0, sparser_index_bytes=36,
            sparser_column_nnz=np.zeros(8, dtype=np.int64),
        )],
    )
    layers = [
        synthetic_attention_workload(48, 3, 16, sparsity=0.9, seed=1),
        synthetic_attention_workload(48, 3, 16, sparsity=0.7, seed=2),
        synthetic_attention_workload(24, 2, 32, sparsity=0.8, seed=3),
        dense_attention_workload(16, 1, 8),
        no_jobs,
    ]
    return ModelWorkload(name="tiny", attention_layers=layers,
                         linear_layers=())


# ----------------------------------------------------------------------
# Random grids over every cycle-modelled parameter
# ----------------------------------------------------------------------
def cycle_grid_strategy():
    """Random DSE grids over the knobs the cycle simulator models
    (``q_forwarding_hit_rate`` is structurally rejected — tested
    separately), including the in-domain edge values (AE off via
    ``None``, AE 1.0, fractional buffer sizes that are whole bytes, the
    2-line minimum)."""
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
    options = {
        "mac_lines": mac_lines,
        "bandwidth_gbps": bandwidth,
        "act_buffer_kb": act_buffer,
        "ae_compression": ae,
    }
    return st.sets(
        st.sampled_from(sorted(options)), min_size=1, max_size=4
    ).flatmap(lambda names: st.fixed_dictionaries(
        {name: options[name] for name in names}
    ))


class TestBitExactness:
    @given(grid=cycle_grid_strategy())
    @settings(max_examples=12, deadline=None)
    def test_batched_sweep_equals_per_point(self, tiny_workload, grid):
        """Points, grid ordering and frontier are bit-identical to the
        reference loop's; every point is scored, and nothing non-finite
        is."""
        from itertools import product

        reference = sweep_design_space(
            tiny_workload, grid, evaluator=ReferenceCycleSimEvaluator()
        )
        batched = sweep_design_space(tiny_workload, grid, evaluator="cycle")
        assert batched == reference  # DesignPoint eq: every field bit-equal
        assert pareto_frontier(batched) == pareto_frontier(reference)
        assert len(batched) == len(list(product(*grid.values())))
        assert all(math.isfinite(p.seconds) and math.isfinite(p.energy_joules)
                   for p in batched)

    @given(grid=cycle_grid_strategy())
    @settings(max_examples=8, deadline=None)
    def test_evaluate_batch_matches_call_loop(self, tiny_workload, grid):
        """The raw rows surface, without the DSE engine in between: one
        batch call scores every row exactly as the reference loop's call
        loop (lifted by the adapter) does."""
        from itertools import product

        names = sorted(grid)
        rows = list(product(*(grid[n] for n in names)))
        expected = PointEvaluator(ReferenceCycleSimEvaluator()).evaluate_batch(
            tiny_workload, VITCOD_DEFAULT, names, rows
        )
        batch = CycleSimEvaluator().evaluate_batch(
            tiny_workload, VITCOD_DEFAULT, names, rows
        )
        assert len(batch) == len(expected) == len(rows)
        assert batch == expected  # EvalMetrics eq: both fields bit-equal

    def test_indexed_subset_matches_per_point(self, small_workload):
        grid = {"mac_lines": [16, 32, 64], "ae_compression": [None, 0.5]}
        per_point = dict(iter_indexed_design_points(
            small_workload, grid, [5, 0, 3],
            evaluator=ReferenceCycleSimEvaluator(),
        ))
        batched = dict(iter_indexed_design_points(
            small_workload, grid, [5, 0, 3], evaluator="cycle",
        ))
        assert batched == per_point

    def test_sub_batched_walk_matches(self, small_workload, monkeypatch):
        """A tiny cell budget forces one MAC-line count per table
        sub-batch and one point per direct-route sub-batch (the 0.5 and
        3000 GB/s points straddle the compute/DRAM-bound crossover, so
        rows take that route); the walk must stay bit-identical to the
        default budget and to the reference loop (sub-batching is memory
        bounding, not a semantics change)."""
        grid = {"mac_lines": [16, 32, 64], "ae_compression": [None, 0.5],
                "bandwidth_gbps": [0.5, 3000.0]}
        reference = sweep_design_space(small_workload, grid,
                                       evaluator=ReferenceCycleSimEvaluator())
        assert sweep_design_space(small_workload, grid,
                                  evaluator="cycle") == reference
        monkeypatch.setattr(cycle_sim_module, "_GRID_CELL_BUDGET", 1)
        direct_batches = []
        real = cycle_sim_module._direct_envelopes

        def counting(*args):
            for pts, rows, values in real(*args):
                direct_batches.append(pts.size)
                yield pts, rows, values

        monkeypatch.setattr(cycle_sim_module, "_direct_envelopes", counting)
        assert sweep_design_space(small_workload, grid,
                                  evaluator="cycle") == reference
        assert direct_batches and set(direct_batches) == {1}


class TestBatchEngine:
    def test_cycle_resolves_batch_capable(self):
        evaluator = resolve_evaluator("cycle")
        assert type(evaluator) is CycleSimEvaluator
        assert isinstance(evaluator, Evaluator)
        assert resolve_evaluator(evaluator) is evaluator
        assert type(resolve_evaluator(PerPoint(CycleSimEvaluator()))) \
            is PointEvaluator

    def test_reference_evaluator_stays_per_point(self):
        """The oracle must never inherit the production batch walk, or
        every reference check would compare the walk with itself: it is
        a per-point callable the adapter lifts."""
        evaluator = ReferenceCycleSimEvaluator()
        assert not callable(getattr(evaluator, "evaluate_batch", None))
        lifted = resolve_evaluator(evaluator)
        assert type(lifted) is PointEvaluator and lifted.point is evaluator

    def test_reference_sweep_never_walks_the_grid(self, tiny_workload,
                                                  monkeypatch):
        """With the production walk broken, a sweep through the reference
        evaluator still returns the reference points (it runs the scalar
        event loop), while the production evaluator scores nothing."""
        grid = {"mac_lines": [16, 32], "ae_compression": [None, 0.5]}
        reference = sweep_design_space(tiny_workload, grid,
                                       evaluator=ReferenceCycleSimEvaluator())
        assert len(reference) == 4

        def broken(self, model, columns):
            raise RuntimeError("grid walk used")

        monkeypatch.setattr(CycleAccurateSimulator, "simulate_attention_grid",
                            broken)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert sweep_design_space(
                tiny_workload, grid, evaluator=ReferenceCycleSimEvaluator()
            ) == reference
        with pytest.warns(RuntimeWarning, match="grid walk used"):
            assert sweep_design_space(tiny_workload, grid,
                                      evaluator="cycle") == []

    def test_spec_round_trip_shared_with_per_point(self):
        """One class scores both routes, so there is one spec; the
        pre-merge batched name survives only as an alias of it."""
        from repro.sim.evaluator import BatchedCycleSimEvaluator

        assert BatchedCycleSimEvaluator is CycleSimEvaluator
        spec = {"name": "cycle"}
        assert evaluator_spec(CycleSimEvaluator()) == spec
        rebuilt = evaluator_from_spec(spec)
        assert type(rebuilt) is CycleSimEvaluator
        assert evaluator_spec(rebuilt) == spec

    def test_serial_sweep_uses_batch_calls(self, small_workload,
                                           monkeypatch):
        """The engine really routes cycle chunks through evaluate_batch."""
        calls = []
        real = CycleSimEvaluator.evaluate_batch

        def spying(self, workload, base_config, names, rows):
            rows = list(rows)
            calls.append(len(rows))
            return real(self, workload, base_config, names, rows)

        monkeypatch.setattr(CycleSimEvaluator, "evaluate_batch", spying)
        grid = {"mac_lines": [16, 32, 64], "ae_compression": [None, 0.5]}
        points = sweep_design_space(small_workload, grid, evaluator="cycle")
        assert len(points) == 6
        assert sum(calls) == 6  # every point scored through the batch axis

    def test_invalid_point_falls_back_to_per_point_failures(
            self, small_workload):
        """1 MAC line breaks the allocator: the grid rejects it before any
        evaluator runs, and a row that reaches a scorer anyway (a direct
        call) fails per point under the reference loop while the walk
        refuses the whole call."""
        with pytest.raises(ValueError, match=r"'mac_lines' value 1: .*MAC"):
            sweep_design_space(small_workload, {"mac_lines": [1, 32, 64]},
                               evaluator="cycle")
        rows = [(1,), (32,)]
        reference = PointEvaluator(ReferenceCycleSimEvaluator()) \
            .evaluate_batch(small_workload, VITCOD_DEFAULT, ["mac_lines"],
                            rows)
        assert isinstance(reference[0], ValueError)
        assert "at least 2 MAC lines" in str(reference[0])
        assert reference[1] == CycleSimEvaluator().evaluate_batch(
            small_workload, VITCOD_DEFAULT, ["mac_lines"], rows[1:]
        )[0]
        with pytest.raises(ValueError, match="at least 2 MAC lines"):
            CycleSimEvaluator().evaluate_batch(
                small_workload, VITCOD_DEFAULT, ["mac_lines"], rows
            )

    def test_invalid_ae_rejected(self, small_workload):
        with pytest.raises(ValueError,
                           match=r"'ae_compression' value 1.5: ae_compression"):
            sweep_design_space(small_workload,
                               {"ae_compression": [1.5, 0.5]},
                               evaluator="cycle")

    @pytest.mark.parametrize("chunksize", [1, 2])
    def test_unsupported_parameter_raises_cleanly(self, small_workload,
                                                  chunksize):
        """Sweeping a knob the cycle simulator does not model is a
        structural error in batched mode exactly as per point (one point
        per chunk, or two) — raised clean, with no fallback
        RuntimeWarning noise."""
        grid = {"mac_lines": [16, 32], "q_forwarding_hit_rate": [0.0, 0.9]}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(UnsupportedParameterError,
                               match="q_forwarding_hit_rate"):
                sweep_design_space(small_workload, grid, chunksize=chunksize,
                                   evaluator="cycle")


class TestWidthBands:
    @given(widths=st.lists(st.integers(0, 5000), max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_band_partition_invariants(self, widths):
        """Every positive-width row lands in exactly one band; inside a
        band the widest row is less than twice the narrowest, so no row
        is ever padded across bands (padding overhead < 2x by
        construction)."""
        bands = _width_bands(np.array(widths, dtype=np.int64))
        covered = np.concatenate([rows for rows in bands]) if bands else \
            np.array([], dtype=np.int64)
        expected = [i for i, w in enumerate(widths) if w > 0]
        assert sorted(covered.tolist()) == expected
        for rows in bands:
            band_widths = [widths[i] for i in rows.tolist()]
            assert min(band_widths) > 0
            assert max(band_widths) < 2 * min(band_widths)

    def test_geometry_pads_within_band_only(self):
        """The grid geometry's padded matrices are exactly each band's
        own width — a narrow denser row never pays for the sparser
        engine's width."""
        layers = [synthetic_attention_workload(96, 2, 32, sparsity=s, seed=i)
                  for i, s in enumerate((0.95, 0.7))]
        sim = CycleAccurateSimulator()
        geometry = sim._grid_geometry(layers)
        n_d, n_s = geometry["n_d"], geometry["n_s"]
        all_widths = np.concatenate([n_d, n_s])
        seen = []
        for band in geometry["compute_bands"]:
            rows = np.where(band["is_d"], band["layer"],
                            band["layer"] + len(layers))
            seen.extend(rows.tolist())
            widths = all_widths[rows]
            assert band["pad"].shape[1] == widths.max()
            assert (band["lengths"] == widths).all()
            assert widths.max() < 2 * widths.min()
        assert sorted(seen) == sorted(
            i for i, w in enumerate(all_widths) if w > 0
        )
        for band in geometry["compute_bands"]:
            # Softmax slack offsets: finite exactly on the real job
            # slots (padded slots must stay +inf so the max-reduce
            # ignores them); the envelope floor is 0 on job slots and
            # -inf on padded ones, so padding never tops a line.
            padded = np.arange(band["pad"].shape[1]) >= band["lengths"][:, None]
            assert band["sm_off"].shape == band["pad"].shape
            assert np.isfinite(band["sm_off"][~padded]).all()
            assert np.isinf(band["sm_off"][padded]).all()
            assert (band["pad_floor"][~padded] == 0.0).all()
            assert np.isneginf(band["pad_floor"][padded]).all()


class TestSimulateAttentionGrid:
    def test_unknown_column_rejected(self, small_workload):
        """The cycle walk refuses any column outside the knobs it models,
        the analytical walk's Q-forwarding hit rate included."""
        for column in ("voltage", "q_forwarding_hit_rate"):
            with pytest.raises(UnsupportedParameterError,
                               match="unknown design-point column"):
                CycleAccurateSimulator().simulate_attention_grid(
                    small_workload, {column: np.array([0.5])}
                )

    def test_mismatched_column_lengths_rejected(self, small_workload):
        with pytest.raises(ValueError, match="disagree on length"):
            CycleAccurateSimulator().simulate_attention_grid(
                small_workload,
                {"num_mac_lines": np.array([16, 32]),
                 "ae_compression": np.array([0.5])},
            )

    def test_empty_columns_is_own_design_point(self, small_workload):
        """No columns is the simulator's own design point, P = 1, equal
        to the reference event loop."""
        totals = CycleAccurateSimulator().simulate_attention_grid(
            small_workload, {}
        )
        result = ReferenceCycleSimulator().simulate_attention(small_workload)
        for name in _WALK_FIELDS:
            assert totals[name].tolist() == [getattr(result, name)], name
        assert totals["jobs_executed"] == result.jobs_executed
        assert totals["bytes_per_cycle"].tolist() == \
            [VITCOD_DEFAULT.bytes_per_cycle]

    def test_custom_dram_model_rejected(self, small_workload):
        """The walk cannot replay a DramModel subclass, so the simulator
        takes no DRAM model at all; the reference loop accepts any."""
        from repro.hw.dram import DramModel

        class StatefulDram(DramModel):
            pass

        with pytest.raises(TypeError, match="dram"):
            CycleAccurateSimulator(dram=StatefulDram())
        reference = ReferenceCycleSimulator(dram=StatefulDram())
        plain = ReferenceCycleSimulator(dram=DramModel())
        assert reference.simulate_attention(small_workload) == \
            plain.simulate_attention(small_workload)


class TestDistShards:
    def test_cycle_shards_batched_vs_per_point_stores_identical(
            self, small_workload, tmp_path):
        """A batched cycle shard writes the records a per-point shard
        would — byte-identical stores, so mixed fleets are safe."""
        from repro.dist import merge_store, run_shard

        grid = {"mac_lines": [2, 16, 32, 64], "ae_compression": [None, 0.5]}
        for shard in ("1/2", "2/2"):
            run_shard(small_workload, grid, shard,
                      tmp_path / "batched", evaluator="cycle")
            run_shard(small_workload, grid, shard,
                      tmp_path / "per_point",
                      evaluator=PerPoint(CycleSimEvaluator()))
        batched = merge_store(tmp_path / "batched")
        per_point = merge_store(tmp_path / "per_point")
        assert list(batched.points) == list(per_point.points)
        assert batched.frontier == per_point.frontier
        reference = sweep_design_space(
            small_workload, grid, evaluator=ReferenceCycleSimEvaluator()
        )
        assert list(batched.points) == reference
