"""Tests for Algorithm 1's reordering step and the split-and-conquer driver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparsity import (
    find_global_tokens,
    metrics,
    prune_attention_map,
    reorder_attention_map,
    split_and_conquer,
    synthetic_vit_attention,
)


def mask_with_globals(n, global_cols, band=1, seed=0):
    """Binary mask: diagonal band plus fully-dense global columns."""
    idx = np.arange(n)
    mask = np.abs(idx[:, None] - idx[None, :]) <= band
    mask[:, list(global_cols)] = True
    return mask


class TestFindGlobalTokens:
    def test_detects_dense_columns(self):
        mask = mask_with_globals(20, [3, 11])
        is_global = find_global_tokens(mask, theta_d=0.5)
        assert is_global[3] and is_global[11]
        assert is_global.sum() == 2

    def test_absolute_threshold(self):
        mask = mask_with_globals(20, [5])
        is_global = find_global_tokens(mask, theta_d=15)
        assert is_global[5] and is_global.sum() == 1

    def test_multi_head_aggregates(self):
        m1 = mask_with_globals(16, [2])
        m2 = mask_with_globals(16, [2, 9])
        is_global = find_global_tokens(np.stack([m1, m2]), theta_d=0.5)
        assert is_global[2]

    def test_wrong_ndim_raises(self):
        with pytest.raises(ValueError):
            find_global_tokens(np.zeros(5, dtype=bool), 0.5)


class TestReorder:
    def test_globals_move_to_front(self):
        mask = mask_with_globals(24, [7, 15])
        reordered, info = reorder_attention_map(mask, theta_d=0.5)
        assert info.num_global_tokens == 2
        np.testing.assert_array_equal(info.permutation[:2], [7, 15])

    def test_permutation_is_bijection(self):
        mask = mask_with_globals(30, [4, 20, 29])
        _, info = reorder_attention_map(mask, theta_d=0.5)
        assert sorted(info.permutation.tolist()) == list(range(30))

    def test_nnz_preserved(self):
        mask = mask_with_globals(24, [3])
        reordered, _ = reorder_attention_map(mask, theta_d=0.5)
        assert reordered.sum() == mask.sum()

    def test_front_columns_denser(self):
        mask = mask_with_globals(32, [6, 17])
        reordered, info = reorder_attention_map(mask, theta_d=0.5)
        ngt = info.num_global_tokens
        front = reordered[:, :ngt].mean()
        rest = reordered[:, ngt:].mean()
        assert front > rest

    def test_attention_map_permuted_alongside(self):
        mask = mask_with_globals(16, [5])
        a = np.arange(256, dtype=float).reshape(16, 16)
        reordered_mask, reordered_map, info = reorder_attention_map(
            mask, theta_d=0.5, attention_map=a
        )
        perm = info.permutation
        np.testing.assert_allclose(reordered_map, a[np.ix_(perm, perm)])

    def test_stable_within_groups(self):
        mask = mask_with_globals(20, [8, 2])
        _, info = reorder_attention_map(mask, theta_d=0.5)
        # Global tokens keep original relative order: 2 before 8.
        np.testing.assert_array_equal(info.permutation[:2], [2, 8])
        # Non-globals also keep order.
        rest = info.permutation[2:]
        assert (np.diff(rest) > 0).all()


class TestSplitConquer:
    def test_partitions_cover_mask(self, paper_scale_result):
        res = paper_scale_result
        for head_mask, part in zip(res.mask, res.partitions):
            assert part.denser_nnz + part.sparser_nnz == head_mask.sum()

    def test_target_sparsity_achieved(self, paper_scale_result):
        assert abs(paper_scale_result.sparsity - 0.9) < 0.02

    def test_polarization_high(self, paper_scale_result):
        res = paper_scale_result
        score = metrics.polarization_score(
            res.reordered_masks(), res.num_global_tokens
        )
        assert score > 0.7

    def test_denser_block_denser_than_sparser(self, paper_scale_result):
        for part in paper_scale_result.partitions:
            assert part.denser_density > 0.5
            assert part.sparser_density < 0.2
            assert part.denser_density > 3 * part.sparser_density

    def test_requires_exactly_one_threshold(self):
        maps = synthetic_vit_attention(32, num_heads=2)
        with pytest.raises(ValueError):
            split_and_conquer(maps)
        with pytest.raises(ValueError):
            split_and_conquer(maps, theta_p=0.5, target_sparsity=0.9)

    def test_2d_input_promoted_to_single_head(self):
        maps = synthetic_vit_attention(32, num_heads=1, seed=0)[0]
        res = split_and_conquer(maps, target_sparsity=0.8)
        assert res.num_heads == 1

    def test_theta_p_direct(self):
        maps = synthetic_vit_attention(32, num_heads=2, seed=2)
        res = split_and_conquer(maps, theta_p=0.5)
        assert res.theta_p == 0.5
        assert 0.0 < res.sparsity < 1.0


class TestHypothesisReorder:
    @given(
        n=st.integers(min_value=4, max_value=32),
        num_globals=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=40, deadline=None)
    def test_reorder_preserves_structure(self, n, num_globals, seed):
        rng = np.random.default_rng(seed)
        cols = rng.choice(n, size=min(num_globals, n), replace=False)
        mask = mask_with_globals(n, cols)
        reordered, info = reorder_attention_map(mask, theta_d=0.5)
        # Bijection, nnz preserved, diagonal structure preserved up to
        # relabelling (row/col both permuted).
        assert sorted(info.permutation.tolist()) == list(range(n))
        assert reordered.sum() == mask.sum()
        perm = info.permutation
        np.testing.assert_array_equal(reordered, mask[np.ix_(perm, perm)])

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_polarization_never_hurt_by_reorder(self, seed):
        maps = synthetic_vit_attention(48, num_heads=2, seed=seed)
        pruned = prune_attention_map(maps, 0.3)
        res = split_and_conquer(maps, theta_p=0.3, theta_d=0.25)
        before = metrics.polarization_score(
            pruned, res.num_global_tokens
        )
        after = metrics.polarization_score(
            res.reordered_masks(), res.num_global_tokens
        )
        assert after >= before - 1e-9
