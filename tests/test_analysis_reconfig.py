"""Tests for attention-structure diagnostics and the reconfigurability
cost model."""

import numpy as np
import pytest

from attention_structure import (
    distance_profile,
    global_column_share,
    head_agreement,
    structure_report,
)
from repro.compiler import compile_layers, parse_layers
from repro.compiler.reconfig import (
    amortized_overhead,
    break_even_inferences,
    estimate_compile_cost,
)
from repro.hw import ViTCoDAccelerator, attention_workload
from repro.models import extract_average_attention
from repro.sparsity import (
    synthetic_nlp_attention,
    synthetic_vit_attention,
)


class TestDistanceProfile:
    def test_vit_maps_decay_with_distance(self):
        maps = synthetic_vit_attention(96, num_heads=4, seed=0)
        profile = distance_profile(maps, max_distance=10)
        assert profile[0] > profile[5] > 0
        # Near-diagonal mass clearly above the far field.
        assert profile[:2].mean() > 3 * profile[8:].mean()

    def test_nlp_maps_flatter(self):
        vit = distance_profile(synthetic_vit_attention(96, 4, seed=1), 10)
        nlp = distance_profile(synthetic_nlp_attention(96, 4, seed=1), 10)
        vit_decay = vit[0] / max(vit[10], 1e-12)
        nlp_decay = nlp[0] / max(nlp[10], 1e-12)
        assert vit_decay > nlp_decay

    def test_profile_length(self):
        maps = synthetic_vit_attention(32, 2)
        assert len(distance_profile(maps, max_distance=5)) == 6
        assert len(distance_profile(maps)) == 32

    def test_uniform_map_flat(self):
        maps = np.full((1, 16, 16), 1.0 / 16)
        profile = distance_profile(maps)
        np.testing.assert_allclose(profile, 1.0 / 16)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            distance_profile(np.zeros((3, 4, 5)))


class TestGlobalShareAndAgreement:
    def test_vit_global_share_high(self):
        maps = synthetic_vit_attention(197, num_heads=12, seed=0)
        share = global_column_share(maps)
        # ~6% of columns absorb far more than 6% of the mass.
        assert share > 0.2

    def test_nlp_global_share_lower(self):
        vit = global_column_share(synthetic_vit_attention(96, 4, seed=2))
        nlp = global_column_share(synthetic_nlp_attention(96, 4, seed=2))
        assert vit > nlp

    def test_agreement_bounds(self):
        maps = synthetic_vit_attention(64, num_heads=6, seed=3)
        agreement = head_agreement(maps)
        assert 0.0 <= agreement <= 1.0

    def test_single_head_agreement(self):
        maps = synthetic_vit_attention(32, num_heads=1)
        assert head_agreement(maps) == 1.0

    def test_identical_heads_agree_fully(self):
        head = synthetic_vit_attention(48, num_heads=1, seed=4)[0]
        maps = np.stack([head, head, head])
        assert head_agreement(maps) == pytest.approx(1.0)

    def test_structure_report_keys(self):
        report = structure_report(synthetic_vit_attention(64, 4, seed=5))
        assert {"near_mass_ratio", "distance_profile",
                "global_column_share", "head_agreement"} <= set(report)
        assert report["near_mass_ratio"] > 1.0

    def test_trained_model_exhibits_global_columns(self, tiny_vit):
        """Fig. 2's global-token claim holds on attention maps of a REAL
        trained model: some layer's top columns absorb clearly more mass
        than a uniform map's would.  (Diagonal decay is asserted on the
        paper-scale generators above; our 4x4-grid sim model is too small
        for 1-D band structure.)"""
        maps = extract_average_attention(tiny_vit.model,
                                         tiny_vit.dataset.x[:96])
        n = maps[0].shape[-1]
        top_k = max(1, int(round(0.06 * n)))
        best = max(global_column_share(np.asarray(m)) for m in maps)
        assert best > 1.2 * top_k / n


class TestReconfigCost:
    @pytest.fixture(scope="class")
    def layer_configs(self):
        from repro.sparsity import split_and_conquer
        results = [
            split_and_conquer(
                synthetic_vit_attention(197, num_heads=12, seed=s),
                target_sparsity=0.9,
            )
            for s in range(3)
        ]
        return results, parse_layers(results, head_dim=64)

    def test_compile_cost_positive(self, layer_configs):
        _, cfgs = layer_configs
        cost = estimate_compile_cost(cfgs)
        assert cost.total_cycles > 0

    def test_compile_cost_charges_the_compiled_program(self, layer_configs):
        # §V-B.3's one-time compile: every instruction Fig. 14's codegen
        # emits (13 per layer with the AE on) is charged once.
        _, cfgs = layer_configs
        program = compile_layers(cfgs)
        assert len(program) == 13 * len(cfgs) == 39
        assert estimate_compile_cost(cfgs).instruction_cycles == 32 * len(program)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            estimate_compile_cost([])

    def test_one_time_cost_small_vs_inference(self, layer_configs):
        """§V-B.3: compilation is one-time and amortizes — after a modest
        number of inferences its overhead is negligible."""
        results, cfgs = layer_configs
        cost = estimate_compile_cost(cfgs)
        acc = ViTCoDAccelerator()
        inference_cycles = sum(
            acc.simulate_attention_layer(
                attention_workload(r.mask, 64, r.theta_d)
            ).cycles
            for r in results
        )
        overhead_1k = amortized_overhead(cost, inference_cycles, 1000)
        assert overhead_1k < 0.01  # <1% after 1000 inferences

    def test_break_even_vs_dynamic_prediction(self, layer_configs):
        """Against Sanger-style per-input prediction, fixed masks break even
        within a handful of inferences."""
        results, cfgs = layer_configs
        cost = estimate_compile_cost(cfgs)
        # Sanger's per-inference prediction cost on the same layers.
        from repro.baselines import SangerSimulator
        sanger = SangerSimulator()
        saving = sum(
            sanger.simulate_attention_layer(
                attention_workload(r.mask, 64, r.theta_d)
            ).latency.preprocess
            for r in results
        )
        n = break_even_inferences(cost, saving)
        assert n <= 10

    def test_amortized_overhead_validation(self, layer_configs):
        _, cfgs = layer_configs
        cost = estimate_compile_cost(cfgs)
        with pytest.raises(ValueError):
            amortized_overhead(cost, 1000, 0)
        with pytest.raises(ValueError):
            amortized_overhead(cost, 0, 10)
        with pytest.raises(ValueError):
            break_even_inferences(cost, 0)
