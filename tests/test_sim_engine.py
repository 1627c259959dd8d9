"""Tests for the unified simulation-engine layer (repro.sim)."""

import dataclasses

import pytest

from repro.baselines import (
    SangerSimulator,
    SpAttenSimulator,
    cpu_platform,
    edgegpu_platform,
    gpu_platform,
)
from repro.hw import (
    CycleAccurateSimulator,
    CycleSimResult,
    ModelWorkload,
    ViTCoDAccelerator,
    merge_cycle_results,
    model_workload,
)
from repro.hw.cycle_reference import ReferenceCycleSimulator
from repro.models import get_config
from repro.sim import (
    AttentionSimulatorBase,
    ModelSimulator,
    ModelSimulatorBase,
    Simulator,
    merge_results,
)


@pytest.fixture(scope="module")
def tiny_model():
    return model_workload(get_config("deit-tiny"), sparsity=0.9)


@pytest.fixture()
def empty_model():
    return ModelWorkload(name="empty", attention_layers=(), linear_layers=())


ALL_SIMULATORS = [
    ViTCoDAccelerator,
    SangerSimulator,
    SpAttenSimulator,
    CycleAccurateSimulator,
]


class TestProtocol:
    @pytest.mark.parametrize("make", ALL_SIMULATORS)
    def test_all_simulators_conform(self, make):
        assert isinstance(make(), Simulator)

    @pytest.mark.parametrize("make", [
        ViTCoDAccelerator, SangerSimulator, SpAttenSimulator,
        cpu_platform, edgegpu_platform, gpu_platform,
    ])
    def test_model_simulators_conform(self, make):
        # The analytical platforms conform structurally, no inheritance.
        assert isinstance(make(), ModelSimulator)

    def test_cycle_sim_is_attention_only(self):
        sim = CycleAccurateSimulator()
        assert isinstance(sim, Simulator)
        assert not isinstance(sim, ModelSimulator)

    @pytest.mark.parametrize("cls", [
        ViTCoDAccelerator, SangerSimulator, SpAttenSimulator,
    ])
    def test_model_simulators_use_shared_base(self, cls):
        assert issubclass(cls, ModelSimulatorBase)

    def test_cycle_sim_uses_shared_base(self):
        assert issubclass(CycleAccurateSimulator, AttentionSimulatorBase)


class TestEmptyModels:
    """Every simulator raises a clear ValueError instead of crashing on
    ``None.workload`` when a model has no attention layers."""

    @pytest.mark.parametrize("make", ALL_SIMULATORS)
    def test_simulate_attention_raises(self, make, empty_model):
        with pytest.raises(ValueError):
            make().simulate_attention(empty_model)

    @pytest.mark.parametrize("make", [
        ViTCoDAccelerator, SangerSimulator, SpAttenSimulator,
    ])
    def test_simulate_model_raises(self, make, empty_model):
        with pytest.raises(ValueError):
            make().simulate_model(empty_model)

    def test_merge_results_empty(self):
        with pytest.raises(ValueError):
            merge_results([])


class TestMergeResults:
    def test_matches_manual_fold(self, tiny_model):
        acc = ViTCoDAccelerator()
        reports = [
            acc.simulate_attention_layer(l)
            for l in tiny_model.attention_layers
        ]
        merged = merge_results(
            acc.simulate_attention_layer(l)
            for l in tiny_model.attention_layers
        )
        manual = reports[0]
        for r in reports[1:]:
            manual = manual.merged(r)
        assert merged.cycles == manual.cycles
        assert merged.energy_pj == manual.energy_pj

    def test_single_result_passthrough(self, tiny_model):
        acc = ViTCoDAccelerator()
        report = acc.simulate_attention_layer(tiny_model.attention_layers[0])
        assert merge_results([report]) is report


class TestCycleSimResultMerged:
    def _result(self, makespan):
        return CycleSimResult(
            makespan=makespan, sddmm_makespan=makespan / 2,
            spmm_makespan=makespan / 2, denser_busy=1.0, sparser_busy=2.0,
            dram_busy=3.0, softmax_busy=4.0, jobs_executed=5,
        )

    def test_fields_add(self):
        merged = self._result(10.0).merged(self._result(20.0))
        assert merged.makespan == 30.0
        assert merged.jobs_executed == 10
        assert merged.denser_busy == 2.0

    def test_per_layer_chains(self):
        a, b, c = (self._result(m) for m in (1.0, 2.0, 3.0))
        merged = a.merged(b).merged(c)
        assert merged.per_layer == (a, b, c)

    def test_merge_cycle_results_single_layer_wraps(self):
        r = self._result(7.0)
        total = merge_cycle_results([r])
        assert total.per_layer == (r,)
        assert total.makespan == r.makespan


class TestPerLayerBreakdown:
    @pytest.mark.parametrize("simulator", [
        pytest.param(CycleAccurateSimulator, id="vectorized"),
        pytest.param(ReferenceCycleSimulator, id="scalar"),
    ])
    def test_whole_model_exposes_layers(self, tiny_model, simulator):
        total = simulator().simulate_attention(tiny_model)
        assert len(total.per_layer) == len(tiny_model.attention_layers)
        assert total.makespan == pytest.approx(
            sum(r.makespan for r in total.per_layer)
        )
        for r in total.per_layer:
            assert r.per_layer == ()
            assert r.makespan > 0

    def test_accepts_model_workload_and_layer_list(self, tiny_model):
        sim = CycleAccurateSimulator()
        via_model = sim.simulate_attention(tiny_model)
        via_layers = sim.simulate_attention(tiny_model.attention_layers)
        assert dataclasses.astuple(via_model) == dataclasses.astuple(via_layers)

    def test_experiment_uses_per_layer(self):
        from repro.harness import cycle_per_layer_breakdown

        out = cycle_per_layer_breakdown(model="deit-tiny", sparsity=0.9)
        assert len(out["layers"]) == 12
        fractions = [row["makespan_fraction"] for row in out["layers"]]
        assert sum(fractions) == pytest.approx(1.0)
        assert all(0 < row["makespan"] <= out["total_makespan"]
                   for row in out["layers"])


class TestBaselineBehaviourPreserved:
    """The repro.sim refactor must not change what the baselines report."""

    def test_spatten_cascade_still_applied(self, tiny_model):
        sim = SpAttenSimulator()
        whole = sim.simulate_attention(tiny_model)
        # Layers run at decreasing keep ratios, so the model total is less
        # than num_layers x the unpruned first layer.
        first = sim.simulate_attention_layer(
            tiny_model.attention_layers[0], keep_ratio=1.0
        )
        assert whole.cycles < len(tiny_model.attention_layers) * first.cycles

    def test_sanger_model_platform_label(self, tiny_model):
        report = SangerSimulator().simulate_model(tiny_model)
        assert report.platform == "Sanger"
        assert report.workload.endswith(":end2end")

    def test_vitcod_details(self, tiny_model):
        acc = ViTCoDAccelerator()
        attn = acc.simulate_attention(tiny_model)
        assert attn.details == {"layers": len(tiny_model.attention_layers)}
        e2e = acc.simulate_model(tiny_model)
        assert e2e.details["linear_layers"] == len(tiny_model.linear_layers)
