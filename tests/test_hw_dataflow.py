"""Tests for dataflow cycle models, PE allocation, and trace bookkeeping.

ViTCoD's K-stationary SDDMM and output-stationary SpMM formulas are
written elementwise in the accelerator's array walk; their scalar forms
are tested here from the test oracle that holds the walk to them.
"""

import pytest
from hypothesis import given, settings, strategies as st

from analytical_oracle import (
    k_stationary_sddmm_cycles,
    output_stationary_spmm_cycles,
)
from repro.hw import (
    LatencyBreakdown,
    EnergyBreakdown,
    SimReport,
    allocate_mac_lines,
    dense_gemm_cycles,
    s_stationary_sddmm_cycles,
    softmax_cycles,
)


class TestKStationary:
    def test_single_product(self):
        # One dot product of dk=64 on one 8-MAC line: 8 cycles.
        assert k_stationary_sddmm_cycles(1, 64, 1) == 8

    def test_parallel_lines(self):
        # 64 products over 64 lines: one wave.
        assert k_stationary_sddmm_cycles(64, 64, 64) == 8

    def test_waves(self):
        assert k_stationary_sddmm_cycles(65, 64, 64) == 16

    def test_head_dim_padding(self):
        # dk=60 on 8 MACs still needs ceil(60/8)=8 cycles per product.
        assert k_stationary_sddmm_cycles(1, 60, 1) == 8

    def test_zero_products(self):
        assert k_stationary_sddmm_cycles(0, 64, 16) == 0

    def test_invalid_lines(self):
        with pytest.raises(ValueError):
            k_stationary_sddmm_cycles(1, 64, 0)

    def test_linear_scaling_in_products(self):
        base = k_stationary_sddmm_cycles(640, 64, 64)
        double = k_stationary_sddmm_cycles(1280, 64, 64)
        assert double == 2 * base


class TestSStationary:
    def test_dense_wave(self):
        # 512 scores on 512 MACs: one wave of dk cycles.
        assert s_stationary_sddmm_cycles(512, 64, 512) == 64

    def test_pack_efficiency_slows(self):
        full = s_stationary_sddmm_cycles(1024, 64, 512, 1.0)
        half = s_stationary_sddmm_cycles(1024, 64, 512, 0.5)
        assert half == 2 * full

    def test_invalid_efficiency(self):
        with pytest.raises(ValueError):
            s_stationary_sddmm_cycles(10, 64, 512, 0.0)
        with pytest.raises(ValueError):
            s_stationary_sddmm_cycles(10, 64, 512, 1.1)

    def test_zero(self):
        assert s_stationary_sddmm_cycles(0, 64, 512) == 0


class TestSpmmAndGemm:
    def test_spmm_basic(self):
        # 64 nnz over 64 lines, dk=64: one wave of 8 cycles.
        assert output_stationary_spmm_cycles(64, 64, 64) == 8

    def test_spmm_zero(self):
        assert output_stationary_spmm_cycles(0, 64, 64) == 0

    def test_gemm_cycles(self):
        # 512 MACs at full utilization: macs/512 cycles.
        assert dense_gemm_cycles(8, 8, 8, 512, utilization=1.0) == 1

    def test_gemm_utilization(self):
        full = dense_gemm_cycles(64, 64, 64, 512, utilization=1.0)
        derated = dense_gemm_cycles(64, 64, 64, 512, utilization=0.5)
        assert derated == 2 * full

    def test_gemm_invalid(self):
        with pytest.raises(ValueError):
            dense_gemm_cycles(1, 1, 1, 0)
        with pytest.raises(ValueError):
            dense_gemm_cycles(1, 1, 1, 512, utilization=0.0)

    def test_softmax(self):
        # One exp per score + two row touches, retired `lanes` wide.
        assert softmax_cycles(80, 10, lanes=8) == (80 + 20 + 7) // 8
        assert softmax_cycles(0, 0, lanes=8) == 0
        with pytest.raises(ValueError):
            softmax_cycles(10, 1, lanes=0)


class TestAllocator:
    def test_proportional_split(self):
        alloc = allocate_mac_lines(64, 300, 100)
        assert alloc.denser_lines == 48 and alloc.sparser_lines == 16

    def test_total_preserved(self):
        for d, s in [(1, 1), (5, 95), (1000, 3)]:
            alloc = allocate_mac_lines(64, d, s)
            assert alloc.denser_lines + alloc.sparser_lines == 64

    def test_reserve_minimum(self):
        alloc = allocate_mac_lines(64, 10_000, 1)
        assert alloc.sparser_lines >= 1

    def test_zero_workloads(self):
        alloc = allocate_mac_lines(64, 0, 0)
        assert alloc.denser_lines + alloc.sparser_lines == 64

    def test_one_sided(self):
        assert allocate_mac_lines(64, 100, 0).denser_lines == 64
        assert allocate_mac_lines(64, 0, 100).sparser_lines == 64

    def test_errors(self):
        with pytest.raises(ValueError):
            allocate_mac_lines(1, 1, 1)
        with pytest.raises(ValueError):
            allocate_mac_lines(64, -1, 1)

    @given(
        denser=st.integers(min_value=0, max_value=10**9),
        sparser=st.integers(min_value=0, max_value=10**9),
        lines=st.integers(min_value=2, max_value=256),
    )
    @settings(max_examples=60, deadline=None)
    def test_allocation_invariants(self, denser, sparser, lines):
        alloc = allocate_mac_lines(lines, denser, sparser)
        assert alloc.denser_lines + alloc.sparser_lines == lines
        assert alloc.denser_lines >= 0 and alloc.sparser_lines >= 0
        if denser > 0 and sparser > 0:
            assert alloc.denser_lines >= 1 and alloc.sparser_lines >= 1


class TestTrace:
    def test_latency_addition(self):
        a = LatencyBreakdown(compute=10, preprocess=2, data_movement=5)
        b = LatencyBreakdown(compute=1, preprocess=1, data_movement=1)
        c = a + b
        assert c.total == 20
        assert c.compute == 11

    def test_fractions_sum_to_one(self):
        lat = LatencyBreakdown(compute=3, preprocess=1, data_movement=6)
        fracs = lat.fractions()
        assert sum(fracs.values()) == pytest.approx(1.0)

    def test_fractions_empty(self):
        assert LatencyBreakdown().fractions()["compute"] == 0.0

    def test_energy_addition(self):
        a = EnergyBreakdown(mac=1, sram=2, dram=3, other=4, static=5)
        b = EnergyBreakdown(mac=1)
        assert (a + b).total == 16

    def test_report_seconds(self):
        r = SimReport(platform="x", workload="w",
                      latency=LatencyBreakdown(compute=500),
                      frequency_hz=500e6)
        assert r.seconds == pytest.approx(1e-6)

    def test_speedup_over(self):
        fast = SimReport("a", "w", LatencyBreakdown(compute=100),
                         frequency_hz=1e9)
        slow = SimReport("b", "w", LatencyBreakdown(compute=1000),
                         frequency_hz=1e9)
        assert fast.speedup_over(slow) == pytest.approx(10.0)

    def test_merged_accumulates(self):
        a = SimReport("p", "w1", LatencyBreakdown(compute=10),
                      EnergyBreakdown(mac=5), frequency_hz=1e9)
        b = SimReport("p", "w2", LatencyBreakdown(compute=20),
                      EnergyBreakdown(mac=7), frequency_hz=1e9)
        m = a.merged(b)
        assert m.cycles == 30 and m.energy.mac == 12

    def test_merged_carries_no_piece_details(self):
        a = SimReport("p", "w1", LatencyBreakdown(compute=10),
                      frequency_hz=1e9, details={"mac_count": 5})
        b = SimReport("p", "w2", LatencyBreakdown(compute=20),
                      frequency_hz=1e9, details={"mac_count": 7})
        assert a.merged(b).details == {}

    def test_merged_frequency_mismatch(self):
        a = SimReport("p", "w", LatencyBreakdown(), frequency_hz=1e9)
        b = SimReport("p", "w", LatencyBreakdown(), frequency_hz=5e8)
        with pytest.raises(ValueError):
            a.merged(b)
