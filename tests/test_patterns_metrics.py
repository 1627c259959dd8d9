"""Tests for synthetic pattern generators and mask metrics."""

import numpy as np
import pytest

from repro.sparsity import (
    metrics,
    split_and_conquer,
    synthetic_nlp_attention,
    synthetic_vit_attention,
)


def random_mask(n, density, seed):
    return np.random.default_rng(seed).random((1, n, n)) < density


class TestGenerators:
    def test_vit_attention_row_normalised(self):
        maps = synthetic_vit_attention(64, num_heads=4, seed=0)
        assert maps.shape == (4, 64, 64)
        np.testing.assert_allclose(maps.sum(axis=-1), 1.0, atol=1e-12)
        assert (maps >= 0).all()

    def test_vit_attention_deterministic(self):
        a = synthetic_vit_attention(32, 2, seed=9)
        b = synthetic_vit_attention(32, 2, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_vit_attention_has_diagonal_concentration(self):
        maps = synthetic_vit_attention(64, num_heads=1, seed=1)[0]
        diag_mass = np.trace(maps) / 64
        off_mass = maps.mean()
        assert diag_mass > 3 * off_mass

    def test_vit_attention_has_global_columns(self):
        maps = synthetic_vit_attention(96, num_heads=1, seed=2)[0]
        col_mass = maps.sum(axis=0)
        # A few columns absorb far more mass than the median column.
        assert col_mass.max() > 5 * np.median(col_mass)

    def test_vit_heads_differ(self):
        maps = synthetic_vit_attention(48, num_heads=3, seed=3)
        assert not np.allclose(maps[0], maps[1])

    def test_nlp_attention_less_structured(self):
        vit = synthetic_vit_attention(96, num_heads=4, seed=4)
        nlp = synthetic_nlp_attention(96, num_heads=4, seed=4)
        vit_res = split_and_conquer(vit, target_sparsity=0.9)
        nlp_res = split_and_conquer(nlp, target_sparsity=0.9)
        vit_pol = metrics.polarization_score(
            vit_res.reordered_masks(), vit_res.num_global_tokens)
        nlp_pol = metrics.polarization_score(
            nlp_res.reordered_masks(), nlp_res.num_global_tokens)
        vit_diag = metrics.diagonal_fraction(vit_res.mask)
        nlp_diag = metrics.diagonal_fraction(nlp_res.mask)
        # ViT masks polarize and concentrate on the diagonal; NLP masks don't.
        assert vit_diag > nlp_diag


class TestMetrics:
    def test_sparsity_density_complementary(self):
        mask = random_mask(32, 0.25, seed=2)
        assert metrics.sparsity(mask) + mask.mean() == pytest.approx(1.0)

    def test_polarization_perfect(self):
        mask = np.zeros((1, 10, 10), dtype=bool)
        mask[:, :, :3] = True
        assert metrics.polarization_score(mask, 3) == pytest.approx(1.0)

    def test_polarization_zero_for_uniform(self):
        mask = np.ones((1, 10, 10), dtype=bool)
        assert metrics.polarization_score(mask, 3) == pytest.approx(0.0)

    def test_column_imbalance_zero_for_uniform(self):
        mask = np.ones((8, 8), dtype=bool)
        assert metrics.column_imbalance(mask) == pytest.approx(0.0)

    def test_column_imbalance_high_for_skewed(self):
        mask = np.zeros((16, 16), dtype=bool)
        mask[:, 0] = True
        mask[0, :] = True
        assert metrics.column_imbalance(mask) > 1.0

    def test_k_reuse_counts_used_columns_only(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[:, 0] = True  # one column used by all 8 rows
        assert metrics.k_reuse_factor(mask) == pytest.approx(8.0)

    def test_q_reuse(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[0, :] = True
        assert metrics.q_reuse_factor(mask) == pytest.approx(8.0)

    def test_diagonal_fraction_pure_band(self):
        idx = np.arange(20)
        mask = np.abs(idx[:, None] - idx[None, :]) <= 1
        assert metrics.diagonal_fraction(mask, band_width=1) == pytest.approx(1.0)

    def test_diagonal_fraction_empty(self):
        assert metrics.diagonal_fraction(np.zeros((4, 4), dtype=bool)) == 0.0

    def test_mask_summary_keys(self):
        mask = random_mask(16, 0.2, seed=3)
        summary = metrics.mask_summary(mask, num_global_tokens=2)
        assert {"sparsity", "column_imbalance", "k_reuse", "q_reuse",
                "diagonal_fraction", "polarization"} <= set(summary)

    def test_reuse_bounded_by_n(self):
        mask = random_mask(24, 0.5, seed=4)
        assert metrics.k_reuse_factor(mask) <= 24
        assert metrics.q_reuse_factor(mask) <= 24

    def test_invalid_shape_raises(self):
        with pytest.raises(ValueError):
            metrics.column_imbalance(np.zeros(5, dtype=bool))
