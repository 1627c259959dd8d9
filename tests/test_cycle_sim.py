"""Tests for the event-driven simulator and the banked DRAM model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw import (
    CycleAccurateSimulator,
    DramModel,
    DramRequest,
    ViTCoDAccelerator,
    dense_attention_workload,
    synthetic_attention_workload,
)
from cycle_reference import Timeline


@pytest.fixture(scope="module")
def wl90():
    return synthetic_attention_workload(197, 12, 64, sparsity=0.9, seed=7)


@pytest.fixture(scope="module")
def wl70():
    return synthetic_attention_workload(197, 12, 64, sparsity=0.7, seed=7)


class TestDramModel:
    def test_sequential_stream_at_peak(self):
        dram = DramModel()
        size = 1 << 20
        bw = size / dram.service_cycles(DramRequest(bytes=size))
        assert bw == pytest.approx(dram.bytes_per_cycle)

    def test_scattered_slower_than_sequential(self):
        dram = DramModel()
        assert (dram.service_cycles(DramRequest(bytes=128, sequential=False))
                > dram.service_cycles(DramRequest(bytes=128, sequential=True)))

    def test_burst_rounding(self):
        dram = DramModel(burst_bytes=64)
        # A 1-byte request still occupies a full burst.
        t1 = dram.service_cycles(DramRequest(bytes=1))
        t64 = dram.service_cycles(DramRequest(bytes=64))
        assert t1 == t64

    def test_zero_request(self):
        assert DramModel().service_cycles(DramRequest(bytes=0)) == 0.0

    def test_negative_request_raises(self):
        with pytest.raises(ValueError):
            DramModel().service_cycles(DramRequest(bytes=-1))

    def test_amplification_at_least_one(self):
        dram = DramModel()
        for size in (8, 64, 100, 4096):
            for seq in (True, False):
                request = DramRequest(bytes=size, sequential=seq)
                ideal = size / dram.bytes_per_cycle
                assert dram.service_cycles(request) / ideal >= 1.0 - 1e-9

    @given(size=st.integers(min_value=1, max_value=1 << 22))
    @settings(max_examples=40, deadline=None)
    def test_service_monotone_in_size(self, size):
        dram = DramModel()
        small = dram.service_cycles(DramRequest(bytes=size))
        big = dram.service_cycles(DramRequest(bytes=size + 64))
        assert big >= small


class TestTimeline:
    def test_fcfs_serialisation(self):
        t = Timeline("x")
        _, done1 = t.acquire(0.0, 10.0)
        start2, done2 = t.acquire(5.0, 10.0)
        assert done1 == 10.0
        assert start2 == 10.0 and done2 == 20.0
        assert t.busy == 20.0 and t.served == 2

    def test_idle_gap(self):
        t = Timeline("x")
        t.acquire(0.0, 5.0)
        start, _ = t.acquire(100.0, 5.0)
        assert start == 100.0
        assert t.utilization(105.0) == pytest.approx(10.0 / 105.0)

    def test_negative_duration_raises(self):
        with pytest.raises(ValueError):
            Timeline("x").acquire(0.0, -1.0)

    def test_utilization_bounds(self):
        t = Timeline("x")
        t.acquire(0.0, 10.0)
        assert t.utilization(0.0) == 0.0
        assert t.utilization(5.0) == 1.0  # clamped


class TestCycleSim:
    def test_agrees_with_analytical_within_bounds(self, wl90):
        """The event-driven makespan and the analytical model must agree
        within a small constant factor (they model the same machine at
        different granularities)."""
        event = CycleAccurateSimulator().simulate_layer(wl90)
        analytic = ViTCoDAccelerator().simulate_attention_layer(wl90)
        ratio = event.makespan / analytic.cycles
        assert 0.5 < ratio < 4.0

    def test_tracks_analytical_across_sparsity(self, wl90, wl70):
        """Both simulators must move the same way with sparsity."""
        ev = CycleAccurateSimulator()
        an = ViTCoDAccelerator()
        ev_gain = (ev.simulate_layer(wl70).makespan
                   / ev.simulate_layer(wl90).makespan)
        an_gain = (an.simulate_attention_layer(wl70).cycles
                   / an.simulate_attention_layer(wl90).cycles)
        assert ev_gain > 1.5 and an_gain > 1.5

    def test_ae_helps_in_event_sim(self, wl90):
        with_ae = CycleAccurateSimulator(use_ae=True).simulate_layer(wl90)
        without = CycleAccurateSimulator(use_ae=False).simulate_layer(wl90)
        assert with_ae.makespan < without.makespan

    def test_utilizations_bounded(self, wl90):
        r = CycleAccurateSimulator().simulate_layer(wl90)
        for busy in (r.denser_busy, r.sparser_busy, r.dram_busy):
            assert 0.0 <= busy <= r.makespan

    def test_engines_overlap(self, wl90):
        """Two-pronged execution: total engine busy time exceeds the SDDMM
        makespan, i.e. the engines genuinely ran in parallel."""
        r = CycleAccurateSimulator().simulate_layer(wl90)
        assert r.denser_busy + r.sparser_busy > 0
        assert r.sddmm_makespan < r.denser_busy + r.sparser_busy + (
            r.makespan  # degenerate guard for tiny workloads
        )

    def test_job_count_matches_columns(self):
        wl = synthetic_attention_workload(48, 2, 16, sparsity=0.8, seed=1)
        r = CycleAccurateSimulator().simulate_layer(wl)
        max_jobs = 2 * 48 + 2  # columns per head + q/v streams
        assert 2 < r.jobs_executed <= max_jobs

    def test_dense_workload_supported(self):
        wl = dense_attention_workload(32, 2, 16)
        r = CycleAccurateSimulator().simulate_layer(wl)
        assert r.makespan > 0
        assert r.sparser_busy == 0  # everything is a global column

    def test_multi_layer_accumulates(self, wl90):
        sim = CycleAccurateSimulator()
        one = sim.simulate_layer(wl90)
        three = sim.simulate_attention([wl90, wl90, wl90])
        assert three.makespan == pytest.approx(3 * one.makespan)
        assert three.jobs_executed == 3 * one.jobs_executed

    def test_empty_layer_list_raises(self):
        with pytest.raises(ValueError):
            CycleAccurateSimulator().simulate_attention([])

    def test_invalid_compression_raises(self):
        with pytest.raises(ValueError):
            CycleAccurateSimulator(ae_compression=0.0)

    def test_scaled_hardware_faster(self, wl90):
        from repro.hw import VITCOD_DEFAULT
        small = CycleAccurateSimulator().simulate_layer(wl90)
        big = CycleAccurateSimulator(
            config=VITCOD_DEFAULT.scaled(4)
        ).simulate_layer(wl90)
        assert big.makespan < small.makespan


def test_production_never_imports_the_reference_loop():
    """The reference event loop is a test oracle: loading the CLI, the
    service and the dist layer (and running a cycle point) must not pull
    it, or any other module of ``tests/``, in — even with ``tests/`` on
    the path."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    tests = Path(__file__).resolve().parent
    code = (
        "import sys, repro.cli, repro.serve, repro.dist\n"
        "from repro.sim import resolve_evaluator\n"
        "from repro.perf import cached_model_workload\n"
        "from repro.hw.params import VITCOD_DEFAULT\n"
        "resolve_evaluator('cycle').evaluate_batch(cached_model_workload("
        "'deit-tiny', sparsity=0.9), VITCOD_DEFAULT, ['mac_lines'], "
        "[(64,)])\n"
        f"tests = {str(tests) + os.sep!r}\n"
        "print(sorted(name for name, m in list(sys.modules.items())\n"
        "             if (getattr(m, '__file__', None) or '').startswith(tests)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parents[1]), str(tests)])
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env)
    assert out.stdout.strip() == "[]"
