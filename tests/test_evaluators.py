"""Evaluator-pluggable DSE: built-ins, failure handling, wire specs.

The sweep engine itself (streaming, chunking, Pareto pruning) is covered by
``test_dse.py``; this file covers the :mod:`repro.sim.evaluator` strategy
layer — that the analytical default stays bit-identical, that cycle-sim
points really come from the event-driven simulator, that a raising
evaluator drops its point with a warning instead of poisoning the sweep,
and that evaluator specs round-trip strictly.
"""

from dataclasses import replace

import pytest

from repro.harness.dse import iter_indexed_design_points, sweep_design_space
from repro.hw import model_workload
from cycle_reference import ReferenceCycleSimulator
from repro.hw.params import VITCOD_DEFAULT
from repro.models import get_config
from repro.sim import (
    AnalyticalEvaluator,
    CycleSimEvaluator,
    EvalMetrics,
    Evaluator,
    PointEvaluator,
    UnsupportedParameterError,
    resolve_evaluator,
)

from per_point import PerPoint

GRID = {"mac_lines": [16, 32, 64], "ae_compression": [None, 0.5]}


@pytest.fixture(scope="module")
def small_workload():
    return model_workload(get_config("deit-tiny"), sparsity=0.9)


class ExplodingEvaluator:
    """Raises on one specific design point.

    A per-point callable the engine lifts into rows; healthy points are
    the analytical per-layer fold.
    """

    name = "exploding"

    def __call__(self, workload, config, accel_kwargs):
        if config.num_mac_lines == 32:
            raise RuntimeError("injected evaluator failure")
        return PerPoint(AnalyticalEvaluator())(workload, config, accel_kwargs)


class AreaEvaluator:
    """Deterministic toy evaluator."""

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


class TestOneEntryPerRow:
    """``evaluate_batch`` returns one entry per row, swept knobs or none:
    each built-in agrees with its per-point oracle lifted by the one
    adapter."""

    @pytest.mark.parametrize("names, rows", [
        ([], []),
        ([], [()]),
        ([], [(), (), ()]),
        (["mac_lines"], []),
        (["mac_lines"], [(16,), (64,)]),
    ], ids=["unswept-0", "unswept-1", "unswept-3", "swept-0", "swept-2"])
    @pytest.mark.parametrize("evaluator, oracle", [
        (AnalyticalEvaluator(), AnalyticalEvaluator()),
        (CycleSimEvaluator(), CycleSimEvaluator()),
    ], ids=["analytical", "cycle"])
    def test_matches_per_point_adapter(self, small_workload, evaluator,
                                       oracle, names, rows):
        expected = PointEvaluator(PerPoint(oracle)).evaluate_batch(
            small_workload, VITCOD_DEFAULT, names, rows
        )
        assert len(expected) == len(rows)
        assert evaluator.evaluate_batch(
            small_workload, VITCOD_DEFAULT, names, rows
        ) == expected


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
        streamed = [point for _, point in iter_indexed_design_points(
            small_workload, GRID, evaluator="analytical")]
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
            assert point.seconds == result.makespan / config.frequency_hz
            assert point.energy_joules > 0

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
                evaluator="cycle", chunksize=1,
            )

    def test_empty_grid(self, small_workload):
        with pytest.raises(ValueError):
            sweep_design_space(small_workload, {}, evaluator="cycle")


class TestFailureHandling:
    GRID = {"mac_lines": [16, 32, 64]}

    def test_serial_failure_dropped_with_warning(self, small_workload):
        with pytest.warns(RuntimeWarning, match="injected evaluator"):
            points = sweep_design_space(small_workload, self.GRID,
                                        evaluator=ExplodingEvaluator())
        assert [p.parameter("mac_lines") for p in points] == [16, 64]

    def test_unknown_parameter_still_raises(self, small_workload):
        """Malformed grids are caller bugs, not droppable failures."""
        with pytest.raises(ValueError, match="unknown grid parameter"):
            sweep_design_space(small_workload, {"voltage": [0.9]},
                               evaluator=ExplodingEvaluator())

    def test_custom_evaluator_scores_every_point(self, small_workload):
        points = sweep_design_space(small_workload, self.GRID,
                                    evaluator=AreaEvaluator())
        assert [p.seconds for p in points] == \
            [1.0 / (16 * 8), 1.0 / (32 * 8), 1.0 / (64 * 8)]


class TestEvaluatorSpecs:
    """JSON-safe evaluator specs (the result-store manifest currency)."""

    def test_builtin_round_trips(self):
        from repro.sim import evaluator_from_spec, evaluator_spec

        for spec in (
            {"name": "analytical"},
            {"name": "cycle"},
        ):
            assert evaluator_spec(evaluator_from_spec(spec)) == spec

    def test_spec_accepts_names_and_none(self):
        from repro.sim import evaluator_spec

        assert evaluator_spec(None) == {"name": "analytical"}
        assert evaluator_spec("cycle") == {"name": "cycle"}

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


class TestSpecHardening:
    """Wire-format strictness: specs now cross trust boundaries (serve)."""

    def test_string_shorthand(self):
        from repro.sim import evaluator_from_spec

        assert evaluator_from_spec("analytical").name == "analytical"
        assert isinstance(evaluator_from_spec("cycle"), CycleSimEvaluator)

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

        with pytest.raises(ValueError,
                           match=r"choose from \['analytical', 'cycle'\]"):
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
            ({"name": "cycle", "adaptive": 1}, "adaptive"),
            ({"name": "cycle", "band_slack": True}, "band_slack"),
            ({"name": "analytical", "band_slack": "wide"}, "band_slack"),
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
