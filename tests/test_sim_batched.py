"""Batched whole-model simulation == per-layer loop, bit for bit.

The cycle simulator's grid walk runs every layer in one max-plus scan with
per-layer reset rows; durations live on the ``2**-20``-cycle grid, so the
whole-model walk, the walk layer by layer and the scalar reference loop
(:mod:`repro.hw.cycle_reference`) are exact in double precision and must
agree exactly, ``per_layer`` breakdowns included.  The analytical model's
array geometry mirrors the per-layer phase expressions operation for
operation, so it is held to exact equality with its per-layer reports
folded by ``merge_results``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hw import (
    AttentionWorkload,
    CycleAccurateSimulator,
    HeadWorkload,
    ViTCoDAccelerator,
    dense_attention_workload,
    merge_cycle_results,
    model_workload,
    synthetic_attention_workload,
)
from repro.hw.cycle_reference import ReferenceCycleSimulator
from repro.models import get_config
from repro.sim import merge_results


def random_layer(data, tag):
    """One hand-rolled AttentionWorkload with explicit per-column counts."""
    num_tokens = data.draw(st.integers(4, 40), label=f"{tag}-tokens")
    head_dim = data.draw(st.integers(2, 32), label=f"{tag}-dim")
    num_heads = data.draw(st.integers(1, 3), label=f"{tag}-heads")
    heads = []
    for h in range(num_heads):
        ngt = data.draw(st.integers(0, num_tokens), label=f"{tag}-ngt{h}")
        col_nnz = np.asarray(
            data.draw(
                st.lists(st.integers(0, num_tokens),
                         min_size=num_tokens - ngt,
                         max_size=num_tokens - ngt),
                label=f"{tag}-nnz{h}",
            ),
            dtype=np.int64,
        )
        heads.append(HeadWorkload(
            num_tokens=num_tokens,
            head_dim=head_dim,
            num_global_tokens=ngt,
            denser_nnz=ngt * num_tokens,
            sparser_nnz=int(col_nnz.sum()),
            sparser_index_bytes=int(4 * (col_nnz.size + 1) + col_nnz.sum()),
            sparser_column_nnz=col_nnz,
        ))
    return AttentionWorkload(num_tokens=num_tokens, num_heads=num_heads,
                             head_dim=head_dim, heads=heads)


def assert_batched_equals_layer_loop(layers, **sim_kwargs):
    """Whole-model walk == the walk layer by layer == the reference loop."""
    sim = CycleAccurateSimulator(**sim_kwargs)
    batched = sim.simulate_attention(layers)
    walk_loop = merge_cycle_results(sim.simulate_layer(l) for l in layers)
    reference = ReferenceCycleSimulator(**sim_kwargs).simulate_attention(layers)
    assert dataclasses.astuple(batched) == dataclasses.astuple(walk_loop)
    assert dataclasses.astuple(batched) == dataclasses.astuple(reference)
    return batched


class TestCycleSimBatched:
    def test_deit_base_model(self):
        wl = model_workload(get_config("deit-base"), sparsity=0.9)
        total = assert_batched_equals_layer_loop(wl.attention_layers)
        assert len(total.per_layer) == 12

    def test_mixed_shape_layers(self):
        """LeViT-style stage changes: token count, heads and dims differ."""
        wl = model_workload(get_config("levit-128"), sparsity=0.9)
        assert_batched_equals_layer_loop(wl.attention_layers)

    def test_dense_and_sparse_mix(self):
        layers = [
            dense_attention_workload(24, 2, 16),
            synthetic_attention_workload(48, 2, 16, sparsity=0.9, seed=3),
            synthetic_attention_workload(48, 2, 16, sparsity=0.7, seed=4),
        ]
        assert_batched_equals_layer_loop(layers)

    def test_empty_engines(self):
        """Layers with no denser jobs, no sparser jobs, or no jobs at all
        exercise the walk's empty-band and carry-through paths."""
        no_denser = AttentionWorkload(
            num_tokens=8, num_heads=1, head_dim=4,
            heads=[HeadWorkload(
                num_tokens=8, head_dim=4, num_global_tokens=0,
                denser_nnz=0, sparser_nnz=6, sparser_index_bytes=40,
                sparser_column_nnz=np.array([3, 0, 0, 1, 0, 0, 2, 0]),
            )],
        )
        no_sparser = dense_attention_workload(8, 1, 4)
        no_jobs = AttentionWorkload(
            num_tokens=8, num_heads=1, head_dim=4,
            heads=[HeadWorkload(
                num_tokens=8, head_dim=4, num_global_tokens=0,
                denser_nnz=0, sparser_nnz=0, sparser_index_bytes=36,
                sparser_column_nnz=np.zeros(8, dtype=np.int64),
            )],
        )
        assert_batched_equals_layer_loop([no_denser, no_sparser, no_jobs])
        assert_batched_equals_layer_loop([no_jobs])

    def test_single_layer(self):
        wl = synthetic_attention_workload(32, 2, 16, sparsity=0.8, seed=1)
        total = assert_batched_equals_layer_loop([wl])
        assert len(total.per_layer) == 1

    @pytest.mark.parametrize("use_ae,compression", [
        (True, 0.5), (True, 0.25), (False, 0.5),
    ])
    def test_ae_variants(self, use_ae, compression):
        wl = model_workload(get_config("deit-tiny"), sparsity=0.9)
        assert_batched_equals_layer_loop(
            wl.attention_layers[:4], use_ae=use_ae,
            ae_compression=compression,
        )

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_property_random_multilayer(self, data):
        """Random multi-layer stacks (mixed shapes, empty engines, zero
        columns) agree bit-for-bit between the walk and the layer loops."""
        num_layers = data.draw(st.integers(1, 4), label="num_layers")
        layers = [random_layer(data, f"l{i}") for i in range(num_layers)]
        assert_batched_equals_layer_loop(layers)

    def test_totals_are_field_sums(self):
        wl = model_workload(get_config("deit-tiny"), sparsity=0.9)
        total = CycleAccurateSimulator().simulate_attention(wl)
        for f in dataclasses.fields(total):
            if f.name == "per_layer":
                continue
            assert getattr(total, f.name) == pytest.approx(
                sum(getattr(r, f.name) for r in total.per_layer)
            )


def layer_fold(accel, wl, end_to_end):
    """The per-layer reference: every attention layer's report (and, end
    to end, every GEMM's, Q/K outputs AE-compressed) folded left to right
    with ``merge_results``."""
    reports = [accel.simulate_attention_layer(layer)
               for layer in wl.attention_layers]
    if end_to_end:
        reports += [
            accel.simulate_gemm(gemm, compress_output=gemm.name.endswith(".qkv"))
            for gemm in wl.linear_layers
        ]
    return merge_results(reports)


class TestAnalyticalBatched:
    """ViTCoDAccelerator's array geometry vs the per-layer reference fold."""

    def assert_reports_identical(self, wl, **kwargs):
        accel = ViTCoDAccelerator(**kwargs)
        for method, end_to_end, suffix in (
            ("simulate_attention", False, "attention"),
            ("simulate_model", True, "end2end"),
        ):
            a = getattr(accel, method)(wl)
            b = layer_fold(accel, wl, end_to_end)
            assert dataclasses.astuple(a.latency) == dataclasses.astuple(b.latency)
            assert dataclasses.astuple(a.energy) == dataclasses.astuple(b.energy)
            assert (a.platform, a.frequency_hz) == (b.platform, b.frequency_hz)
            assert a.workload == f"{wl.name}:{suffix}"

    @pytest.mark.parametrize("model", ["deit-tiny", "levit-128"])
    def test_models(self, model):
        self.assert_reports_identical(
            model_workload(get_config(model), sparsity=0.9)
        )

    @pytest.mark.parametrize("kwargs", [
        {"use_ae": False},
        {"two_pronged": False, "use_ae": False},
        {"dataflow": "s_stationary"},
        {"q_forwarding_hit_rate": 0.0},
        {"ae_compression": 0.25},
    ])
    def test_config_variants(self, kwargs):
        wl = model_workload(get_config("deit-tiny"), sparsity=0.8)
        self.assert_reports_identical(wl, **kwargs)

    def test_unreordered_masks(self):
        wl = model_workload(get_config("deit-tiny"), sparsity=0.9,
                            reordered=False)
        self.assert_reports_identical(wl)

    def test_dense_model(self):
        wl = model_workload(get_config("deit-tiny"), sparsity=None)
        self.assert_reports_identical(wl)

    @pytest.mark.parametrize("sparsity", [0.6, 0.95])
    def test_sparsity_extremes(self, sparsity):
        wl = model_workload(get_config("deit-tiny"), sparsity=sparsity)
        self.assert_reports_identical(wl)


class TestWorkloadStatArrays:
    """The cached head-stat arrays must agree with the per-head walks."""

    def test_stats_match_heads(self):
        wl = synthetic_attention_workload(48, 4, 16, sparsity=0.9, seed=5)
        stats = wl.head_stats()
        assert stats.tokens.tolist() == [h.num_tokens for h in wl.heads]
        assert stats.sparser_nnz.tolist() == [h.sparser_nnz for h in wl.heads]
        assert wl.total_nnz == sum(h.total_nnz for h in wl.heads)
        assert wl.sddmm_macs == sum(
            h.denser_macs + h.sparser_macs for h in wl.heads
        )
        assert wl.spmm_macs == sum(h.spmm_macs for h in wl.heads)
        assert wl.index_bytes() == sum(h.sparser_index_bytes for h in wl.heads)
        assert wl.scattered_nnz == sum(
            int(round(h.sparser_nnz * (1.0 - h.sparser_locality)))
            for h in wl.heads
        )

    def test_stat_arrays_are_cached(self):
        wl = synthetic_attention_workload(32, 2, 16, sparsity=0.9, seed=1)
        assert wl.head_stats() is wl.head_stats()
        assert wl.sparser_job_products() is wl.sparser_job_products()
        assert wl.denser_job_products() is wl.denser_job_products()

    def test_job_products_conserve_nnz(self):
        """Fallback heads (no per-column counts) keep every product."""
        head = HeadWorkload(num_tokens=16, head_dim=8, num_global_tokens=3,
                            denser_nnz=48, sparser_nnz=40,
                            sparser_index_bytes=0)
        wl = AttentionWorkload(num_tokens=16, num_heads=1, head_dim=8,
                               heads=[head])
        assert int(wl.sparser_job_products().sum()) == 40
        assert int(wl.denser_job_products().sum()) == 3 * 16

    def test_pickle_strips_cached_arrays(self):
        """Warm geometry caches must not inflate the pickled workload
        (parallel DSE ships it once per chunk)."""
        import pickle

        wl = synthetic_attention_workload(48, 4, 16, sparsity=0.9, seed=5)
        cold = len(pickle.dumps(wl))
        wl.head_stats()
        wl.denser_job_products()
        wl.sparser_job_products()
        assert len(pickle.dumps(wl)) == cold
        clone = pickle.loads(pickle.dumps(wl))
        assert clone.total_nnz == wl.total_nnz
        assert (clone.sparser_job_products()
                == wl.sparser_job_products()).all()


class TestBatchedAllocator:
    def test_matches_scalar_allocator(self):
        from repro.hw import allocate_mac_lines, allocate_mac_lines_batched

        rng = np.random.default_rng(11)
        denser = rng.integers(0, 10**10, size=200)
        sparser = rng.integers(0, 10**10, size=200)
        d_lines, s_lines = allocate_mac_lines_batched(64, denser, sparser)
        for i in range(denser.size):
            alloc = allocate_mac_lines(64, int(denser[i]), int(sparser[i]))
            assert (d_lines[i], s_lines[i]) == \
                (alloc.denser_lines, alloc.sparser_lines)

    def test_huge_workloads_fall_back_exactly(self):
        """Beyond float64 exactness the batched allocator must defer to the
        big-int scalar path instead of silently diverging."""
        from repro.hw import allocate_mac_lines, allocate_mac_lines_batched

        cases = [(10**17, 1), (2**53 + 1, 2**53 - 1), (0, 10**18)]
        d_lines, s_lines = allocate_mac_lines_batched(
            127, [d for d, _ in cases], [s for _, s in cases]
        )
        for i, (d, s) in enumerate(cases):
            alloc = allocate_mac_lines(127, d, s)
            assert (d_lines[i], s_lines[i]) == \
                (alloc.denser_lines, alloc.sparser_lines)
