"""Tests for workload construction (repro.hw.workload) and hardware params."""

import tracemalloc

import pytest

from repro.hw import (
    VITCOD_DEFAULT,
    GemmWorkload,
    HeadWorkload,
    attention_workload,
    dense_attention_workload,
    model_workload,
    synthetic_attention_workload,
)
from repro.models import get_config


class TestHardwareConfig:
    def test_paper_design_point(self):
        cfg = VITCOD_DEFAULT
        assert cfg.total_macs == 512
        assert cfg.peak_gops == pytest.approx(256.0)  # Fig. 3 compute roof
        assert cfg.bytes_per_cycle == pytest.approx(153.6)
        # 320 KB SRAM total: 128 + 20 + 108 + 64.
        total_kb = (cfg.act_buffer_bytes + cfg.index_buffer_bytes
                    + cfg.output_buffer_bytes + cfg.weight_buffer_bytes) / 1024
        assert total_kb == 320

    def test_scaled(self):
        big = VITCOD_DEFAULT.scaled(4)
        assert big.total_macs == 4 * 512
        assert big.bytes_per_cycle == pytest.approx(4 * 153.6)
        assert "x4" in big.name


class TestHeadWorkload:
    def make(self, **kw):
        defaults = dict(num_tokens=100, head_dim=64, num_global_tokens=10,
                        denser_nnz=1000, sparser_nnz=400,
                        sparser_index_bytes=800, sparser_locality=0.8)
        defaults.update(kw)
        return HeadWorkload(**defaults)

    def test_column_nnz_spreads_a_missing_count(self):
        h = self.make(sparser_nnz=93)
        counts = h.column_nnz()
        assert counts.sum() == 93 and len(counts) == 90
        assert counts.max() - counts.min() == 1


def workload_of(result, **kwargs):
    """The workload of a split-and-conquer result's mask, at head_dim 64."""
    return attention_workload(result.mask, 64, result.theta_d, **kwargs)


class TestWorkloadFromMasks:
    def test_consistency_with_partitions(self, paper_scale_result):
        wl = workload_of(paper_scale_result)
        assert wl.num_heads == 12 and wl.num_tokens == 197
        for head, part in zip(wl.heads, paper_scale_result.partitions):
            assert head.denser_nnz == part.denser_nnz
            assert head.sparser_nnz == part.sparser_nnz
            assert head.num_global_tokens == part.num_global_tokens
            assert 0.0 <= head.sparser_locality <= 1.0

    def test_sparsity_matches(self, paper_scale_result):
        wl = workload_of(paper_scale_result)
        assert wl.sparsity == pytest.approx(paper_scale_result.sparsity)

    def test_unreordered_mode(self, paper_scale_result):
        wl = workload_of(paper_scale_result, reordered=False)
        assert all(h.num_global_tokens == 0 for h in wl.heads)
        assert all(h.denser_nnz == 0 for h in wl.heads)
        # All non-zeros land in the sparser workload.
        total = sum(int(m.sum()) for m in paper_scale_result.mask)
        assert sum(h.sparser_nnz for h in wl.heads) == total

    def test_unreordered_less_local(self, paper_scale_result):
        reordered = workload_of(paper_scale_result)
        raw = workload_of(paper_scale_result, reordered=False)
        # Without the global-column extraction, global columns pollute the
        # band: scattered non-zeros increase.
        assert raw.scattered_nnz > reordered.scattered_nnz

    def test_coo_index_format(self, paper_scale_result):
        csc = workload_of(paper_scale_result, index_format="csc")
        coo = workload_of(paper_scale_result, index_format="coo")
        assert coo.index_bytes() > csc.index_bytes()

    def test_unknown_format(self, paper_scale_result):
        with pytest.raises(ValueError):
            workload_of(paper_scale_result, index_format="bsr")


class TestSyntheticAndDense:
    def test_synthetic_sparsity(self):
        wl = synthetic_attention_workload(96, 4, 32, sparsity=0.85, seed=0)
        assert abs(wl.sparsity - 0.85) < 0.03

    def test_dense_workload(self):
        wl = dense_attention_workload(96, 4, 32)
        assert wl.sparsity == 0.0
        assert wl.scattered_nnz == 0
        assert wl.sddmm_macs == wl.dense_sddmm_macs

    def test_sparsity_none_gives_dense(self):
        wl = synthetic_attention_workload(48, 2, 16, sparsity=None)
        assert wl.sparsity == 0.0


class TestGemmWorkload:
    def test_macs_and_bytes(self):
        g = GemmWorkload("fc", m=10, k=20, n=30)
        assert g.macs == 6000
        assert g.weight_bytes(2) == 20 * 30 * 2


class TestModelWorkload:
    def test_deit_base_structure(self):
        wl = model_workload(get_config("deit-base"), sparsity=0.9)
        assert len(wl.attention_layers) == 12
        assert len(wl.linear_layers) == 48  # qkv, proj, fc1, fc2 per layer
        assert wl.name == "deit-base"
        assert abs(wl.mean_sparsity - 0.9) < 0.03

    def test_build_holds_two_layer_wide_arrays(self):
        """A DeiT-Base build at 90% sparsity peaks at most 8 MiB traced.

        The bound allows one layer's two (12, 197, 197) float64 arrays,
        3.55 MiB each: the generated map, which ``prune_layer``
        normalises in place into row probabilities, and the cumulative
        ranking that θp's bisection reads.  On top of them sit one
        bisection step's boolean comparison (0.44 MiB) and the layers
        built so far.  A build that copies the map, or keeps every
        head's sort, reads ~15 MiB.
        """
        config = get_config("deit-base")
        # Warm up with another seed, so one-time imports do not count.
        model_workload(config, sparsity=0.9, seed=1)
        tracemalloc.start()
        try:
            model_workload(config, sparsity=0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"

    def test_levit_multistage_shapes(self):
        wl = model_workload(get_config("levit-128"), sparsity=0.8)
        tokens = [l.num_tokens for l in wl.attention_layers]
        assert tokens[:4] == [196] * 4
        assert tokens[4:8] == [49] * 4
        assert tokens[8:] == [16] * 4

    def test_layers_vary_by_seed(self):
        wl = model_workload(get_config("deit-tiny"), sparsity=0.9)
        ngts = [tuple(h.num_global_tokens for h in l.heads)
                for l in wl.attention_layers]
        assert len(set(ngts)) > 1  # per-layer variation (Fig. 8)

    def test_mlp_ratio_respected(self):
        wl = model_workload(get_config("levit-128"), sparsity=0.9)
        fc1 = next(g for g in wl.linear_layers if g.name.endswith("fc1"))
        assert fc1.n == 2 * fc1.k  # LeViT mlp_ratio = 2
