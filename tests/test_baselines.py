"""Tests for baseline platforms and accelerator simulators."""

import numpy as np
import pytest

from repro.baselines import (
    SangerSimulator,
    SpAttenSimulator,
    cascade_keep_ratios,
    cpu_platform,
    edgegpu_platform,
    gpu_platform,
)
from repro.hw import ViTCoDAccelerator, model_workload
from repro.hw.dataflow import pack_efficiency
from repro.models import get_config


@pytest.fixture(scope="module")
def deit_base_90():
    return model_workload(get_config("deit-base"), sparsity=0.9, seed=7)


class TestGeneralPlatforms:
    def test_platform_ordering(self, deit_base_90):
        # GPU faster than EdgeGPU faster than CPU on attention.
        cpu = cpu_platform().simulate_attention(deit_base_90).seconds
        edge = edgegpu_platform().simulate_attention(deit_base_90).seconds
        gpu = gpu_platform().simulate_attention(deit_base_90).seconds
        assert gpu < edge < cpu

    def test_dense_execution_ignores_sparsity(self):
        # General platforms run dense: 90% and 70% cost the same.
        cfg = get_config("deit-small")
        p = cpu_platform()
        t90 = p.simulate_attention(model_workload(cfg, sparsity=0.9)).seconds
        t70 = p.simulate_attention(model_workload(cfg, sparsity=0.7)).seconds
        assert t90 == pytest.approx(t70)

    def test_end2end_exceeds_attention(self, deit_base_90):
        p = edgegpu_platform()
        assert (p.simulate_model(deit_base_90).seconds
                > p.simulate_attention(deit_base_90).seconds)

    def test_energy_positive(self, deit_base_90):
        r = gpu_platform().simulate_attention(deit_base_90)
        assert r.energy_joules > 0

    @pytest.mark.parametrize("make", [cpu_platform, edgegpu_platform,
                                      gpu_platform])
    def test_end2end_flops_count_attention_and_linear(self, make,
                                                      deit_base_90):
        p = make()
        attention = p.simulate_attention(deit_base_90).details["flops"]
        assert attention == 1_430_654_976
        assert (p.simulate_model(deit_base_90).details
                == {"flops": attention + 2 * deit_base_90.linear_macs})
        assert attention + 2 * deit_base_90.linear_macs == 34_894_909_440

    def test_kernel_overhead_matters_for_tiny_layers(self):
        # LeViT's late stages have 16-token layers where overhead dominates;
        # attention time per FLOP should be worse than DeiT-Base's.
        levit = model_workload(get_config("levit-256"), sparsity=0.9)
        base = model_workload(get_config("deit-base"), sparsity=0.9)
        p = edgegpu_platform()
        levit_r = p.simulate_attention(levit)
        base_r = p.simulate_attention(base)
        levit_tpf = levit_r.seconds / levit_r.details["flops"]
        base_tpf = base_r.seconds / base_r.details["flops"]
        assert levit_tpf > base_tpf


class TestSanger:
    def test_prediction_charged_as_preprocess(self, deit_base_90):
        r = SangerSimulator().simulate_attention(deit_base_90)
        assert r.latency.preprocess > 0

    def test_fixed_masks_remove_prediction(self, deit_base_90):
        dynamic = SangerSimulator(dynamic_masks=True)
        fixed = SangerSimulator(dynamic_masks=False)
        assert (fixed.simulate_attention(deit_base_90).cycles
                < dynamic.simulate_attention(deit_base_90).cycles)

    def test_pack_efficiency_in_range(self, deit_base_90):
        sim = SangerSimulator()
        for layer in deit_base_90.attention_layers:
            eff = pack_efficiency(layer, sim.pack_width)
            assert 0.05 <= eff <= 1.0

    def test_pack_efficiency_better_for_denser_masks(self):
        sim = SangerSimulator()
        dense = model_workload(get_config("deit-base"), sparsity=0.6, seed=7)
        sparse = model_workload(get_config("deit-base"), sparsity=0.95, seed=7)
        assert (pack_efficiency(dense.attention_layers[0], sim.pack_width)
                > pack_efficiency(sparse.attention_layers[0], sim.pack_width))

    def test_slower_than_vitcod_at_high_sparsity(self, deit_base_90):
        sanger = SangerSimulator().simulate_attention(deit_base_90)
        ours = ViTCoDAccelerator().simulate_attention(deit_base_90)
        speedup = ours.speedup_over(sanger)
        assert 3.0 < speedup < 12.0  # paper: 6.8x

    def test_energy_worse_than_vitcod(self, deit_base_90):
        sanger = SangerSimulator().simulate_attention(deit_base_90)
        ours = ViTCoDAccelerator().simulate_attention(deit_base_90)
        assert sanger.energy_pj / ours.energy_pj > 1.0


class TestSpAtten:
    def test_cascade_ratios_monotone(self):
        ratios = cascade_keep_ratios(12, 0.9)
        assert ratios[0] == pytest.approx(1.0)
        assert ratios[-1] == pytest.approx(np.sqrt(0.1))
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    def test_cascade_single_layer(self):
        assert cascade_keep_ratios(1, 0.75) == [0.5]

    def test_cascade_invalid_sparsity(self):
        with pytest.raises(ValueError):
            cascade_keep_ratios(4, 1.0)

    def test_keep_ratio_shrinks_layer_cost(self, deit_base_90):
        sim = SpAttenSimulator()
        layer = deit_base_90.attention_layers[0]
        full = sim.simulate_attention_layer(layer, keep_ratio=1.0).cycles
        half = sim.simulate_attention_layer(layer, keep_ratio=0.5).cycles
        assert half < full / 2  # quadratic benefit of token pruning

    def test_topk_charged_as_preprocess(self, deit_base_90):
        r = SpAttenSimulator().simulate_attention(deit_base_90)
        assert r.latency.preprocess > 0

    def test_slower_than_vitcod_and_sanger_order(self, deit_base_90):
        # Paper ordering at 90%: ViTCoD < Sanger < SpAtten < GPU < ... < CPU.
        ours = ViTCoDAccelerator().simulate_attention(deit_base_90).seconds
        sanger = SangerSimulator().simulate_attention(deit_base_90).seconds
        spatten = SpAttenSimulator().simulate_attention(deit_base_90).seconds
        gpu = gpu_platform().simulate_attention(deit_base_90).seconds
        cpu = cpu_platform().simulate_attention(deit_base_90).seconds
        assert ours < sanger < spatten < gpu < cpu

    def test_spatten_gains_less_at_high_sparsity(self):
        """SpAtten's coarse pruning saturates: going 80->90% sparsity helps
        it less than it helps ViTCoD (why Fig. 15's gap widens)."""
        cfg = get_config("deit-base")
        wl80 = model_workload(cfg, sparsity=0.8, seed=7)
        wl90 = model_workload(cfg, sparsity=0.9, seed=7)
        sp = SpAttenSimulator()
        ours = ViTCoDAccelerator()
        spatten_gain = (sp.simulate_attention(wl80).seconds
                        / sp.simulate_attention(wl90).seconds)
        vitcod_gain = (ours.simulate_attention(wl80).seconds
                       / ours.simulate_attention(wl90).seconds)
        assert vitcod_gain > spatten_gain

    def test_end2end_includes_token_pruned_gemms(self, deit_base_90):
        sim = SpAttenSimulator()
        e2e = sim.simulate_model(deit_base_90)
        attn = sim.simulate_attention(deit_base_90)
        assert e2e.cycles > attn.cycles
        assert 0 < e2e.details["mean_keep_ratio"] <= 1.0
