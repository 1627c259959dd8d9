"""ViTCoD's analytical walks held to the scalar oracle, layer by layer.

``ViTCoDAccelerator.simulate_attention_layer`` and
``analytical_oracle.walk_gemm`` are the one-layer and one-GEMM cases of
the accelerator's array walks;
``analytical_oracle`` keeps the scalar model the walks replaced.  Every
registry model's layers and GEMMs, at two sparsities and under each
modelling switch, must give equal reports: latency, energy and
``details``.  ``test_sim_batched`` holds the whole-model folds to the
oracle; here the baselines' end-to-end driver is held to its attention
fold merged with the oracle's GEMM chain.
"""

import dataclasses

import pytest

import analytical_oracle
from repro.baselines import SangerSimulator, SpAttenSimulator
from repro.hw import ViTCoDAccelerator
from repro.models import MODEL_REGISTRY
from repro.perf import cached_model_workload
from repro.sim import merge_results

SPARSITIES = (0.6, 0.9)

SETTINGS = {
    "default": {},
    "no-ae": {"use_ae": False},
    "one-engine": {"two_pronged": False},
    "s-stationary": {"dataflow": "s_stationary"},
    "no-forwarding": {"q_forwarding_hit_rate": 0.0},
    "ae-0.25": {"ae_compression": 0.25},
    "amplified-scatter": {"_scatter_amplification": 2.5},
}


def assert_same_report(walk, oracle):
    assert dataclasses.astuple(walk.latency) == dataclasses.astuple(oracle.latency)
    assert dataclasses.astuple(walk.energy) == dataclasses.astuple(oracle.energy)
    assert (walk.platform, walk.workload, walk.frequency_hz) == (
        oracle.platform, oracle.workload, oracle.frequency_hz
    )
    assert walk.details == oracle.details


@pytest.mark.parametrize("kwargs", list(SETTINGS.values()), ids=list(SETTINGS))
def test_one_layer_and_one_gemm_equal_the_oracle(kwargs):
    accel = ViTCoDAccelerator(**kwargs)
    # Scatter amplification applies only where masks were not reordered
    # (no streaming fallback), so that setting also walks unreordered masks.
    orderings = (True, False) if "_scatter_amplification" in kwargs else (True,)
    for model in sorted(MODEL_REGISTRY):
        for sparsity in SPARSITIES:
            for reordered in orderings:
                wl = cached_model_workload(model, sparsity=sparsity,
                                           reordered=reordered)
                for layer in wl.attention_layers:
                    assert_same_report(
                        accel.simulate_attention_layer(layer),
                        analytical_oracle.simulate_attention_layer(accel, layer),
                    )
                for gemm in wl.linear_layers:
                    assert_same_report(
                        analytical_oracle.walk_gemm(accel, gemm),
                        analytical_oracle.simulate_gemm(accel, gemm),
                    )


@pytest.mark.parametrize("make", [SangerSimulator, SpAttenSimulator])
@pytest.mark.parametrize("model", sorted(MODEL_REGISTRY))
def test_baseline_end_to_end_is_attention_then_oracle_gemms(make, model):
    """The dense layers of an attention-only baseline fold onto its
    attention totals exactly as the oracle's per-GEMM reports would."""
    sim = make()
    dense = sim._dense_simulator()
    for sparsity in SPARSITIES:
        wl = cached_model_workload(model, sparsity=sparsity)
        expected = merge_results(
            [sim.simulate_attention(wl)]
            + [analytical_oracle.simulate_gemm(dense, gemm)
               for gemm in wl.linear_layers]
        )
        report = sim.simulate_model(wl)
        assert dataclasses.astuple(report.latency) == dataclasses.astuple(
            expected.latency
        )
        assert dataclasses.astuple(report.energy) == dataclasses.astuple(
            expected.energy
        )
        assert (report.platform, report.workload) == (
            sim.name, f"{wl.name}:end2end"
        )
