"""Tests for the performance layer: workload cache and timing helpers."""

import pytest

from repro.hw import model_workload
from repro.hw.accelerator import ViTCoDAccelerator
from repro.models import get_config
from repro.perf import (
    KeyedCache,
    Timer,
    benchit,
    cached_model_workload,
    cached_synthetic_attention_workload,
)


class TestKeyedCache:
    def test_builds_once(self):
        cache = KeyedCache()
        calls = []

        def build():
            calls.append(1)
            return "value"

        assert cache.get_or_build("k", build) == "value"
        assert cache.get_or_build("k", build) == "value"
        assert len(calls) == 1

    def test_stats(self):
        cache = KeyedCache()
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("b", lambda: 2)
        s = cache.stats()
        assert (s.hits, s.misses, s.size) == (1, 2, 2)

    def test_lru_eviction(self):
        cache = KeyedCache(maxsize=2)
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("b", lambda: 2)
        cache.get_or_build("a", lambda: 1)  # refresh a
        cache.get_or_build("c", lambda: 3)  # evicts b
        before = cache.stats()
        assert before.size == 2
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("c", lambda: 3)
        assert cache.stats().hits == before.hits + 2
        cache.get_or_build("b", lambda: 2)
        assert cache.stats().misses == before.misses + 1

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            KeyedCache(maxsize=0)


class TestCachedWorkloads:
    def test_same_object_on_hit(self):
        cache = KeyedCache()
        wl1 = cached_synthetic_attention_workload(32, 2, 16, sparsity=0.8,
                                                  seed=3, cache=cache)
        wl2 = cached_synthetic_attention_workload(32, 2, 16, sparsity=0.8,
                                                  seed=3, cache=cache)
        assert wl1 is wl2
        assert cache.stats().hits == 1

    def test_distinct_parameters_distinct_entries(self):
        cache = KeyedCache()
        a = cached_synthetic_attention_workload(32, 2, 16, sparsity=0.8,
                                                seed=3, cache=cache)
        b = cached_synthetic_attention_workload(32, 2, 16, sparsity=0.9,
                                                seed=3, cache=cache)
        assert a is not b
        assert cache.stats().size == 2

    def test_model_workload_by_name_and_config_share_entry(self):
        cache = KeyedCache()
        by_name = cached_model_workload("deit-tiny", sparsity=0.9, cache=cache)
        by_cfg = cached_model_workload(get_config("deit-tiny"), sparsity=0.9,
                                       cache=cache)
        assert by_name is by_cfg

    def test_cached_equals_fresh_build(self):
        """A cache hit must be indistinguishable from a fresh construction."""
        cache = KeyedCache()
        cached = cached_model_workload("deit-tiny", sparsity=0.9, seed=0,
                                       cache=cache)
        fresh = model_workload(get_config("deit-tiny"), sparsity=0.9, seed=0)
        assert cached.name == fresh.name
        assert ([(l.sddmm_macs, l.spmm_macs) for l in cached.attention_layers]
                == [(l.sddmm_macs, l.spmm_macs) for l in fresh.attention_layers])
        assert cached.linear_macs == fresh.linear_macs
        assert cached.mean_sparsity == pytest.approx(fresh.mean_sparsity)
        acc = ViTCoDAccelerator()
        assert (acc.simulate_attention(cached).seconds
                == acc.simulate_attention(fresh).seconds)


class TestTiming:
    def test_timer_measures(self):
        with Timer() as t:
            sum(range(1000))
        assert t.seconds >= 0.0

    def test_benchit_counts_calls(self):
        calls = []
        result = benchit(lambda: calls.append(1), repeats=3, warmup=2)
        assert len(calls) == 5
        assert len(result.times) == 3
        assert result.best <= result.mean

    def test_benchit_validates(self):
        with pytest.raises(ValueError):
            benchit(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            benchit(lambda: None, warmup=-1)

    def test_benchit_to_dict(self):
        d = benchit(lambda: None, name="noop", repeats=2, warmup=0).to_dict()
        assert d["name"] == "noop"
        assert d["repeats"] == 2
        assert d["best_s"] <= d["mean_s"] or d["best_s"] == pytest.approx(d["mean_s"])


class TestInstanceMemo:
    class _Frozen:
        """Stand-in for a frozen dataclass (plain object with __dict__)."""

    def test_builds_once_per_key(self):
        from repro.perf import instance_memo

        obj = self._Frozen()
        calls = []

        def build():
            calls.append(1)
            return len(calls)

        assert instance_memo(obj, "_t", ("a", 1), build) == 1
        assert instance_memo(obj, "_t", ("a", 1), build) == 1
        assert instance_memo(obj, "_t", ("a", 2), build) == 2
        assert len(calls) == 2
        assert set(obj.__dict__["_t"]) == {("a", 1), ("a", 2)}


class TestCycleGeometryMemo:
    """The grid walk's geometry memoized on the model workload instance."""

    @pytest.fixture()
    def workload(self):
        # A private copy: memo assertions must not see other tests' entries.
        return model_workload(get_config("deit-tiny"), sparsity=0.9)

    def _simulate(self, workload, **config_fields):
        from dataclasses import replace

        from repro.hw.cycle_sim import CycleAccurateSimulator
        from repro.hw.params import VITCOD_DEFAULT

        config = replace(VITCOD_DEFAULT, **config_fields)
        return CycleAccurateSimulator(config=config).simulate_attention(
            workload
        )

    def test_keys_track_only_relevant_config_fields(self, workload):
        self._simulate(workload)
        table = workload.__dict__["_cycle_geometry"]
        assert len(table) == 1
        # Swept DSE knobs change durations, never the geometry.
        self._simulate(workload)
        self._simulate(workload, dram_bandwidth_bytes_per_s=30e9)
        self._simulate(workload, num_mac_lines=32)
        self._simulate(workload, act_buffer_bytes=64 * 1024)
        assert len(table) == 1
        # The fields the builder reads each get their own entry.
        self._simulate(workload, softmax_lanes=32)
        assert len(table) == 2
        self._simulate(workload, macs_per_line=16)
        assert len(table) == 3

    def test_memoized_results_bit_exact_vs_fresh_workload(self, workload):
        warm = self._simulate(workload)  # populates the memo
        warm2 = self._simulate(workload)  # served from the memo
        cold = self._simulate(
            model_workload(get_config("deit-tiny"), sparsity=0.9)
        )
        assert warm == warm2 == cold
