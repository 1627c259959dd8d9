"""Tests for the sparse index formats.

``CSCMatrix`` is ``repro.formats.CSCMatrix`` (the executor's pattern)
with the column counts and index bytes the oracle's per-head path reads
off it; ``COOMatrix`` is the oracle's (``tests/pruning_oracle.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pruning_oracle import COOMatrix, CSCMatrix


def sample_mask(n=16, density=0.2, seed=0):
    return np.random.default_rng(seed).random((n, n)) < density


def to_dense(sparse):
    """Rebuild the boolean pattern a CSC or COO matrix stores."""
    out = np.zeros(sparse.shape, dtype=bool)
    if isinstance(sparse, CSCMatrix):
        cols = np.repeat(np.arange(sparse.shape[1]), np.diff(sparse.col_ptr))
        out[sparse.row_idx, cols] = True
    else:
        out[sparse.rows, sparse.cols] = True
    return out


class TestCSC:
    def test_roundtrip(self):
        dense = sample_mask()
        np.testing.assert_array_equal(
            to_dense(CSCMatrix.from_dense(dense)), dense
        )

    def test_nnz(self):
        dense = sample_mask(seed=1)
        assert CSCMatrix.from_dense(dense).nnz == dense.sum()

    def test_column_access(self):
        dense = np.zeros((5, 4), dtype=bool)
        dense[1, 2] = dense[3, 2] = True
        csc = CSCMatrix.from_dense(dense)
        np.testing.assert_array_equal(csc.column(2), [1, 3])
        assert len(csc.column(0)) == 0

    def test_column_nnz(self):
        dense = sample_mask(seed=2)
        csc = CSCMatrix.from_dense(dense)
        np.testing.assert_array_equal(csc.column_nnz(), dense.sum(axis=0))

    def test_column_order_sorted(self):
        dense = sample_mask(seed=3)
        csc = CSCMatrix.from_dense(dense)
        for j in range(dense.shape[1]):
            col = csc.column(j)
            assert (np.diff(col) > 0).all() if len(col) > 1 else True

    def test_index_bytes_wider_rows(self):
        small = CSCMatrix.from_dense(np.ones((100, 4), dtype=bool))
        large = CSCMatrix.from_dense(np.ones((300, 4), dtype=bool))
        # 300 rows need 2-byte row indices.
        assert large.index_bytes() > 2 * small.index_bytes()

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            CSCMatrix.from_dense(np.zeros((2, 2, 2)))


class TestCOO:
    def test_roundtrip(self):
        dense = sample_mask(seed=7)
        np.testing.assert_array_equal(
            to_dense(COOMatrix.from_dense(dense)), dense
        )

    def test_nnz(self):
        dense = sample_mask(seed=8)
        assert COOMatrix.from_dense(dense).nnz == dense.sum()

    def test_coo_costs_more_than_csc_on_vit_masks(self):
        # The paper picks CSC over COO (§V-B.1); for our diagonal-ish masks
        # with enough non-zeros per column, CSC's pointer array amortises.
        from repro.sparsity import synthetic_vit_attention, split_and_conquer
        maps = synthetic_vit_attention(197, num_heads=1, seed=0)
        res = split_and_conquer(maps, target_sparsity=0.9)
        sparser = res.partitions[0].sparser_mask
        assert (CSCMatrix.from_dense(sparser).index_bytes()
                < COOMatrix.from_dense(sparser).index_bytes())


class TestIndexBytesHelper:
    def test_all_formats(self):
        dense = sample_mask(seed=9)
        for cls in (CSCMatrix, COOMatrix):
            assert cls.from_dense(dense).index_bytes() > 0


class TestHypothesisRoundtrip:
    @given(
        rows=st.integers(min_value=1, max_value=20),
        cols=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=1000),
        density=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_all_formats_roundtrip(self, rows, cols, seed, density):
        rng = np.random.default_rng(seed)
        dense = rng.random((rows, cols)) < density
        for cls in (CSCMatrix, COOMatrix):
            sparse = cls.from_dense(dense)
            np.testing.assert_array_equal(to_dense(sparse), dense)
            assert sparse.nnz == dense.sum()
