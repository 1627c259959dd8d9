"""Evaluator-pluggable DSE: built-ins, failure handling, hybrid sweeps.

The sweep engine itself (streaming, chunking, Pareto pruning) is covered by
``test_dse.py``; this file covers the :mod:`repro.sim.evaluator` strategy
layer — that the analytical default stays bit-identical, that cycle-sim
points really come from the event-driven simulator, that a raising
evaluator drops its point with a warning instead of poisoning the sweep,
and that hybrid sweeps are deterministic.
"""

from dataclasses import replace

import pytest

from repro.harness import dse as dse_module
from repro.harness.dse import (
    ParetoFront,
    iter_design_space,
    pareto_frontier,
    sweep_design_space,
)
from repro.hw import model_workload
from repro.hw.cycle_reference import ReferenceCycleSimulator
from repro.hw.params import VITCOD_DEFAULT
from repro.models import get_config
from repro.perf import seed_worker_workload, seeded_workload
from repro.sim import (
    AnalyticalEvaluator,
    CycleSimEvaluator,
    EvalMetrics,
    Evaluator,
    HybridEvaluator,
    UnsupportedParameterError,
    resolve_evaluator,
)

from per_point import PerPoint

GRID = {"mac_lines": [16, 32, 64], "ae_compression": [None, 0.5]}


@pytest.fixture(scope="module")
def small_workload():
    return model_workload(get_config("deit-tiny"), sparsity=0.9)


class ExplodingEvaluator:
    """Raises on one specific design point (module-level: pool-picklable).

    A per-point callable the engine lifts into rows; healthy points are
    the analytical per-layer fold.
    """

    name = "exploding"

    def __call__(self, workload, config, accel_kwargs):
        if config.num_mac_lines == 32:
            raise RuntimeError("injected evaluator failure")
        return PerPoint(AnalyticalEvaluator())(workload, config, accel_kwargs)


class AreaEvaluator:
    """Deterministic toy evaluator (module-level: pool-picklable)."""

    name = "area"

    def __call__(self, workload, config, accel_kwargs):
        return EvalMetrics(
            seconds=1.0 / config.total_macs, energy_joules=config.total_macs
        )


class TestResolve:
    def test_none_is_analytical(self):
        assert isinstance(resolve_evaluator(None), AnalyticalEvaluator)

    @pytest.mark.parametrize("name,cls", [
        ("analytical", AnalyticalEvaluator),
        ("cycle", CycleSimEvaluator),
        ("hybrid", HybridEvaluator),
    ])
    def test_builtin_names(self, name, cls):
        evaluator = resolve_evaluator(name)
        assert isinstance(evaluator, cls)
        assert evaluator.name == name
        assert isinstance(evaluator, Evaluator)  # structural conformance

    def test_instance_passthrough(self):
        evaluator = CycleSimEvaluator()
        assert resolve_evaluator(evaluator) is evaluator

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown evaluator"):
            resolve_evaluator("rtl")

    def test_non_callable(self):
        with pytest.raises(TypeError):
            resolve_evaluator(42)


class TestAnalyticalDefault:
    def test_default_bit_identical_to_named_and_instance(self, small_workload):
        base = sweep_design_space(small_workload, GRID)
        named = sweep_design_space(small_workload, GRID,
                                   evaluator="analytical")
        instance = sweep_design_space(small_workload, GRID,
                                      evaluator=AnalyticalEvaluator())
        assert base == named == instance

    def test_streaming_default_matches(self, small_workload):
        eager = sweep_design_space(small_workload, GRID)
        streamed = list(iter_design_space(small_workload, GRID,
                                          evaluator="analytical"))
        assert streamed == eager


class TestCycleSimEvaluator:
    def test_points_come_from_the_cycle_simulator(self, small_workload):
        """Latency is the event loop's makespan (checked against the
        independent reference loop)."""
        points = sweep_design_space(small_workload,
                                    {"mac_lines": [32, 64]},
                                    evaluator="cycle")
        assert len(points) == 2
        for point in points:
            config = replace(VITCOD_DEFAULT,
                             num_mac_lines=point.parameter("mac_lines"))
            result = ReferenceCycleSimulator(
                config=config
            ).simulate_attention(small_workload)
            assert point.seconds == config.cycles_to_seconds(result.makespan)
            assert point.energy_joules > 0

    def test_stream_with_incremental_frontier(self, small_workload):
        every = sweep_design_space(small_workload, GRID, evaluator="cycle")
        front = ParetoFront()
        list(iter_design_space(small_workload, GRID,
                               evaluator=PerPoint(CycleSimEvaluator()),
                               frontier=front))
        assert front.offered == len(every)
        assert front.points == pareto_frontier(every)

    def test_parallel_equals_serial(self, small_workload):
        serial = sweep_design_space(small_workload, GRID, evaluator="cycle")
        parallel = sweep_design_space(small_workload, GRID,
                                      evaluator="cycle", n_jobs=3)
        assert parallel == serial

    def test_unsupported_parameter_raises(self, small_workload):
        """The cycle sim does not model Q forwarding: sweeping it is a
        caller bug that raises, not a droppable per-point failure."""
        with pytest.raises(UnsupportedParameterError,
                           match="q_forwarding_hit_rate"):
            sweep_design_space(
                small_workload, {"q_forwarding_hit_rate": [0.0, 0.3]},
                evaluator="cycle",
            )
        with pytest.raises(UnsupportedParameterError):
            sweep_design_space(
                small_workload, {"q_forwarding_hit_rate": [0.0, 0.3]},
                evaluator="cycle", n_jobs=2,
            )

    def test_empty_grid(self, small_workload):
        with pytest.raises(ValueError):
            sweep_design_space(small_workload, {}, evaluator="cycle")
        with pytest.raises(ValueError):
            next(iter_design_space(small_workload, {}, evaluator="hybrid"))


class TestFailureHandling:
    GRID = {"mac_lines": [16, 32, 64]}

    def test_serial_failure_dropped_with_warning(self, small_workload):
        with pytest.warns(RuntimeWarning, match="injected evaluator"):
            points = sweep_design_space(small_workload, self.GRID,
                                        evaluator=ExplodingEvaluator())
        assert [p.parameter("mac_lines") for p in points] == [16, 64]

    def test_pool_failure_dropped_not_hung(self, small_workload):
        """A worker-side evaluator exception must neither hang the sweep
        nor poison the rest of its chunk."""
        with pytest.warns(RuntimeWarning, match="injected evaluator"):
            points = sweep_design_space(small_workload, self.GRID,
                                        evaluator=ExplodingEvaluator(),
                                        n_jobs=2, chunksize=1)
        assert [p.parameter("mac_lines") for p in points] == [16, 64]
        good = sweep_design_space(small_workload, self.GRID)
        assert points == [p for p in good
                          if p.parameter("mac_lines") != 32]

    def test_unknown_parameter_still_raises(self, small_workload):
        """Malformed grids are caller bugs, not droppable failures."""
        with pytest.raises(ValueError, match="unknown grid parameter"):
            sweep_design_space(small_workload, {"voltage": [0.9]},
                               evaluator=ExplodingEvaluator())

    def test_custom_evaluator_parallel(self, small_workload):
        serial = sweep_design_space(small_workload, self.GRID,
                                    evaluator=AreaEvaluator())
        parallel = sweep_design_space(small_workload, self.GRID,
                                      evaluator=AreaEvaluator(), n_jobs=2)
        assert parallel == serial
        assert [p.seconds for p in serial] == \
            [1.0 / (16 * 8), 1.0 / (32 * 8), 1.0 / (64 * 8)]


class TestHybrid:
    def test_survivors_are_rescored_analytical_frontier(self, small_workload):
        analytical = sweep_design_space(small_workload, GRID)
        survivors = pareto_frontier(analytical)  # grid order preserved
        cycle = {p.parameters: p
                 for p in sweep_design_space(small_workload, GRID,
                                             evaluator="cycle")}
        hybrid = sweep_design_space(small_workload, GRID, evaluator="hybrid")
        assert [p.parameters for p in hybrid] == \
            [p.parameters for p in survivors]
        assert hybrid == [cycle[p.parameters] for p in survivors]

    def test_survivor_ordering_deterministic(self, small_workload):
        runs = [
            sweep_design_space(small_workload, GRID, evaluator="hybrid",
                               n_jobs=n_jobs)
            for n_jobs in (1, 1, 2, 3)
        ]
        assert runs[0] == runs[1] == runs[2] == runs[3]

    def test_stream_applies_user_frontier(self, small_workload):
        front = ParetoFront()
        yielded = list(iter_design_space(small_workload, GRID,
                                         evaluator="hybrid", frontier=front))
        assert front.points == pareto_frontier(yielded)
        assert all(p in yielded for p in front.points)

    def test_direct_call_scores_fine(self, small_workload):
        rows = [(16,), (64,)]
        fine = HybridEvaluator().evaluate_batch(
            small_workload, VITCOD_DEFAULT, ["mac_lines"], rows
        )
        direct = CycleSimEvaluator().evaluate_batch(
            small_workload, VITCOD_DEFAULT, ["mac_lines"], rows
        )
        assert fine == direct

    def test_custom_coarse_and_fine(self, small_workload):
        hybrid = HybridEvaluator(coarse=AreaEvaluator(),
                                 fine=AnalyticalEvaluator())
        points = sweep_design_space(small_workload, {"mac_lines": [16, 64]},
                                    evaluator=hybrid)
        # AreaEvaluator makes seconds/energy a strict trade-off, so both
        # points survive pruning and are re-scored analytically.
        analytical = sweep_design_space(small_workload,
                                        {"mac_lines": [16, 64]})
        assert points == analytical


class TestWorkerSeeding:
    def test_chunk_resolves_seeded_workload(self, small_workload):
        """``workload=None`` chunks read the initializer-seeded workload."""
        assert seeded_workload() is None
        seed_worker_workload(small_workload)
        try:
            assert seeded_workload() is small_workload
            seeded = dse_module._evaluate_chunk(
                None, VITCOD_DEFAULT, ["mac_lines"], [(0, (32,))],
                AnalyticalEvaluator(),
            )
            direct = dse_module._evaluate_chunk(
                small_workload, VITCOD_DEFAULT, ["mac_lines"], [(0, (32,))],
                AnalyticalEvaluator(),
            )
            assert seeded == direct
        finally:
            seed_worker_workload(None)

    def test_parallel_sweep_leaves_parent_unseeded(self, small_workload):
        sweep_design_space(small_workload, {"mac_lines": [16, 32]}, n_jobs=2)
        # The initializer runs in the workers; the parent process keeps a
        # clean slate (the thread-pool fallback passes the workload
        # explicitly instead of seeding the shared module state).
        assert seeded_workload() is None


class TestEvaluatorSpecs:
    """JSON-safe evaluator specs (the result-store manifest currency)."""

    def test_builtin_round_trips(self):
        from repro.sim import evaluator_from_spec, evaluator_spec

        for spec in (
            {"name": "analytical"},
            {"name": "cycle"},
            {"name": "hybrid",
             "coarse": {"name": "analytical"},
             "fine": {"name": "cycle"}},
        ):
            assert evaluator_spec(evaluator_from_spec(spec)) == spec

    def test_spec_accepts_names_and_none(self):
        from repro.sim import evaluator_spec

        assert evaluator_spec(None) == {"name": "analytical"}
        assert evaluator_spec("cycle")["name"] == "cycle"
        assert evaluator_spec("hybrid")["coarse"] == {"name": "analytical"}

    def test_custom_evaluator_identified_not_reconstructible(self):
        from repro.sim import evaluator_from_spec, evaluator_spec

        class Odd:
            name = "odd"

            def __call__(self, workload, config, accel_kwargs):
                return EvalMetrics(1.0, 1.0)

        spec = evaluator_spec(Odd())
        assert spec == {"name": "custom:odd"}
        with pytest.raises(ValueError):
            evaluator_from_spec(spec)

    def test_spec_equivalence_scores_identically(self, small_workload):
        from repro.sim import CycleSimEvaluator, evaluator_from_spec, \
            evaluator_spec

        original = CycleSimEvaluator()
        rebuilt = evaluator_from_spec(evaluator_spec(original))
        rows = [(16,), (64,)]
        assert (original.evaluate_batch(small_workload, VITCOD_DEFAULT,
                                        ["mac_lines"], rows)
                == rebuilt.evaluate_batch(small_workload, VITCOD_DEFAULT,
                                          ["mac_lines"], rows))

    def test_metrics_round_trip(self):
        import json

        metrics = EvalMetrics(seconds=1.23456789e-4,
                              energy_joules=9.87654321e-3)
        data = json.loads(json.dumps(metrics.to_dict()))
        assert EvalMetrics.from_dict(data) == metrics


class TestSpecHardening:
    """Wire-format strictness: specs now cross trust boundaries (serve)."""

    def test_string_shorthand(self):
        from repro.sim import evaluator_from_spec

        assert evaluator_from_spec("analytical").name == "analytical"
        assert isinstance(evaluator_from_spec("hybrid"), HybridEvaluator)

    def test_rejects_non_dict_specs(self):
        from repro.sim import evaluator_from_spec

        with pytest.raises(TypeError):
            evaluator_from_spec(["analytical"])
        with pytest.raises(ValueError, match="name"):
            evaluator_from_spec({})
        with pytest.raises(ValueError, match="name"):
            evaluator_from_spec({"name": 3})

    def test_rejects_unknown_names_listing_choices(self):
        from repro.sim import evaluator_from_spec

        with pytest.raises(ValueError, match="analytical.*cycle.*hybrid"):
            evaluator_from_spec({"name": "quantum"})

    # "engine", "scan", "adaptive" and "band_slack" are retired fields:
    # specs that still carry them are rejected as unknown fields.
    @pytest.mark.parametrize(
        "spec, match",
        [
            ({"name": "analytical", "engine": "scalar"}, "field"),
            ({"name": "cycle", "turbo": True}, "field"),
            ({"name": "cycle", "engine": "abacus"}, "engine"),
            ({"name": "cycle", "scan": "zigzag"}, "scan"),
            ({"name": "hybrid", "adaptive": 1}, "adaptive"),
            ({"name": "hybrid", "band_slack": True}, "band_slack"),
            ({"name": "hybrid", "band_slack": "wide"}, "band_slack"),
            ({"name": "hybrid", "coarse": {"name": "cycle",
                                           "engine": "abacus"}}, "engine"),
        ],
    )
    def test_rejects_malformed_fields(self, spec, match):
        from repro.sim import evaluator_from_spec

        with pytest.raises(ValueError, match=match):
            evaluator_from_spec(spec)

    def test_parameter_names_are_the_dse_vocabulary(self):
        from repro.sim import dse_parameter_names

        names = dse_parameter_names()
        assert names == tuple(sorted(names))
        assert "mac_lines" in names
        assert "ae_compression" in names
