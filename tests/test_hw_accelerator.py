"""Tests for the ViTCoD accelerator simulator (repro.hw.accelerator)."""

import pytest

from analytical_oracle import walk_gemm

from repro.hw import (
    GemmWorkload,
    ViTCoDAccelerator,
    dense_attention_workload,
    model_workload,
    synthetic_attention_workload,
)
from repro.models import get_config


@pytest.fixture(scope="module")
def wl90():
    return synthetic_attention_workload(197, 12, 64, sparsity=0.9, seed=7)


@pytest.fixture(scope="module")
def wl70():
    return synthetic_attention_workload(197, 12, 64, sparsity=0.7, seed=7)


class TestConstruction:
    def test_defaults(self):
        acc = ViTCoDAccelerator()
        assert acc.config.total_macs == 512
        assert acc.use_ae and acc.two_pronged

    def test_invalid_dataflow(self):
        with pytest.raises(ValueError):
            ViTCoDAccelerator(dataflow="row_stationary")

    def test_invalid_compression(self):
        with pytest.raises(ValueError):
            ViTCoDAccelerator(ae_compression=0.0)

    def test_invalid_forwarding(self):
        with pytest.raises(ValueError):
            ViTCoDAccelerator(q_forwarding_hit_rate=1.0)


class TestAttentionLayer:
    def test_report_structure(self, wl90):
        r = ViTCoDAccelerator().simulate_attention_layer(wl90)
        assert r.cycles > 0
        assert r.energy_pj > 0
        assert r.latency.preprocess > 0  # CSC index preload
        assert "sddmm_compute" in r.details

    def test_sparser_workload_faster(self, wl90, wl70):
        acc = ViTCoDAccelerator()
        t90 = acc.simulate_attention_layer(wl90).cycles
        t70 = acc.simulate_attention_layer(wl70).cycles
        assert t90 < t70

    def test_dense_much_slower_than_90(self, wl90):
        acc = ViTCoDAccelerator(use_ae=False)
        dense = acc.simulate_attention_layer(
            dense_attention_workload(197, 12, 64)
        ).cycles
        sparse = acc.simulate_attention_layer(wl90).cycles
        assert dense > 4 * sparse  # paper: up to ~8x at 90% (§VI-C)

    def test_ae_reduces_latency_and_traffic(self, wl90):
        with_ae = ViTCoDAccelerator().simulate_attention_layer(wl90)
        without = ViTCoDAccelerator(use_ae=False).simulate_attention_layer(wl90)
        assert with_ae.cycles < without.cycles
        assert with_ae.details["dram_bytes"] < without.details["dram_bytes"]

    def test_ae_charges_decoder_macs(self, wl90):
        with_ae = ViTCoDAccelerator().simulate_attention_layer(wl90)
        without = ViTCoDAccelerator(use_ae=False).simulate_attention_layer(wl90)
        assert with_ae.details["mac_count"] > without.details["mac_count"]

    def test_two_pronged_beats_single_engine(self, wl90):
        two = ViTCoDAccelerator(use_ae=False).simulate_attention_layer(wl90)
        one = ViTCoDAccelerator(
            use_ae=False, two_pronged=False
        ).simulate_attention_layer(wl90)
        assert two.cycles <= one.cycles

    def test_k_stationary_beats_s_stationary(self, wl90):
        k = ViTCoDAccelerator().simulate_attention_layer(wl90)
        s = ViTCoDAccelerator(
            dataflow="s_stationary"
        ).simulate_attention_layer(wl90)
        assert k.details["sddmm_compute"] <= s.details["sddmm_compute"]

    def test_q_forwarding_reduces_traffic(self, wl90):
        no_fwd = ViTCoDAccelerator(q_forwarding_hit_rate=0.0)
        fwd = ViTCoDAccelerator(q_forwarding_hit_rate=0.5)
        assert (fwd.simulate_attention_layer(wl90).details["dram_bytes"]
                <= no_fwd.simulate_attention_layer(wl90).details["dram_bytes"])

    def test_breakdown_fractions_valid(self, wl90):
        r = ViTCoDAccelerator().simulate_attention_layer(wl90)
        fracs = r.latency.fractions()
        assert all(0.0 <= v <= 1.0 for v in fracs.values())
        assert sum(fracs.values()) == pytest.approx(1.0)

    def test_bigger_config_faster(self, wl90):
        small = ViTCoDAccelerator()
        big = ViTCoDAccelerator(config=small.config.scaled(4))
        assert (big.simulate_attention_layer(wl90).seconds
                < small.simulate_attention_layer(wl90).seconds)


class TestGemm:
    def test_gemm_report(self):
        acc = ViTCoDAccelerator()
        r = walk_gemm(acc, GemmWorkload("fc1", 197, 768, 3072))
        assert r.cycles > 0
        assert r.latency.compute > 0

    def test_qkv_compression_reduces_writeback(self):
        # QKV generation (a ``*.qkv`` GEMM) AE-encodes its Q/K outputs; a
        # same-shape GEMM under any other name writes back uncompressed.
        acc = ViTCoDAccelerator()
        compressed = walk_gemm(acc, GemmWorkload("l0.qkv", 197, 768, 2304))
        plain = walk_gemm(acc, GemmWorkload("l0.fc1", 197, 768, 2304))
        assert (compressed.details["dram_bytes"] < plain.details["dram_bytes"])

    def test_no_compression_without_ae(self):
        acc = ViTCoDAccelerator(use_ae=False)
        a = walk_gemm(acc, GemmWorkload("l0.qkv", 64, 64, 192))
        b = walk_gemm(acc, GemmWorkload("l0.fc1", 64, 64, 192))
        assert a.details["dram_bytes"] == b.details["dram_bytes"]


class TestModelSimulation:
    def test_attention_sums_layers(self):
        wl = model_workload(get_config("deit-tiny"), sparsity=0.9)
        acc = ViTCoDAccelerator()
        total = acc.simulate_attention(wl)
        per_layer = sum(
            acc.simulate_attention_layer(l).cycles
            for l in wl.attention_layers
        )
        assert total.cycles == pytest.approx(per_layer)

    def test_end2end_exceeds_attention(self):
        wl = model_workload(get_config("deit-tiny"), sparsity=0.9)
        acc = ViTCoDAccelerator()
        assert (acc.simulate_model(wl).cycles
                > acc.simulate_attention(wl).cycles)

    def test_deit_base_attention_sub_millisecond(self):
        # Sanity anchor: DeiT-Base attention at 90% sparsity lands well
        # under a millisecond on the 512-MAC design (paper's speedups over
        # a ~70ms CPU imply a few hundred microseconds).
        wl = model_workload(get_config("deit-base"), sparsity=0.9)
        r = ViTCoDAccelerator().simulate_attention(wl)
        assert 50e-6 < r.seconds < 2e-3

    def test_monotone_in_sparsity(self):
        acc = ViTCoDAccelerator()
        cfg = get_config("deit-small")
        times = [
            acc.simulate_attention(model_workload(cfg, sparsity=s)).seconds
            for s in (0.6, 0.7, 0.8, 0.9)
        ]
        assert times == sorted(times, reverse=True)

    def test_energy_monotone_in_sparsity(self):
        acc = ViTCoDAccelerator()
        cfg = get_config("deit-small")
        energies = [
            acc.simulate_attention(model_workload(cfg, sparsity=s)).energy_pj
            for s in (0.6, 0.9)
        ]
        assert energies[1] < energies[0]
