"""Sparse matrix storage formats used by the accelerator model.

The sparser engine pre-loads non-zero *indexes* in **CSC** (compressed sparse
column) format — chosen over COO because the K-stationary dataflow produces
attention-map columns one at a time (§V-B.1), so walking a CSC column yields
exactly the Q rows a resident K vector must be multiplied with.  COO is
provided for the format ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CSCMatrix", "COOMatrix"]


def _validate_dense(dense):
    dense = np.asarray(dense)
    if dense.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {dense.shape}")
    return dense


@dataclass(frozen=True)
class CSCMatrix:
    """Boolean sparsity pattern in compressed-sparse-column form."""

    shape: tuple
    col_ptr: np.ndarray  # (cols+1,)
    row_idx: np.ndarray  # (nnz,)

    @classmethod
    def from_dense(cls, dense):
        dense = _validate_dense(dense).astype(bool)
        rows, cols = dense.shape
        col_ptr = np.zeros(cols + 1, dtype=np.int64)
        col_ptr[1:] = np.cumsum(dense.sum(axis=0))
        row_idx = np.nonzero(dense.T)[1].astype(np.int64)
        return cls(shape=(rows, cols), col_ptr=col_ptr, row_idx=row_idx)

    @property
    def nnz(self):
        return int(self.col_ptr[-1])

    def column(self, j):
        """Row indices of non-zeros in column ``j``."""
        return self.row_idx[self.col_ptr[j] : self.col_ptr[j + 1]]

    def column_nnz(self):
        return np.diff(self.col_ptr)

    def index_bytes(self, ptr_bytes=4, idx_bytes=1):
        """Storage for the index structure (paper: 20 KB index buffer).

        Row indices fit in one byte for N ≤ 256 (ViTs have ≤ 197 + CLS
        tokens); pointers are wider.
        """
        if self.shape[0] > 256 and idx_bytes == 1:
            idx_bytes = 2
        return len(self.col_ptr) * ptr_bytes + len(self.row_idx) * idx_bytes


@dataclass(frozen=True)
class COOMatrix:
    """Boolean sparsity pattern as (row, col) coordinate pairs."""

    shape: tuple
    rows: np.ndarray
    cols: np.ndarray

    @classmethod
    def from_dense(cls, dense):
        dense = _validate_dense(dense).astype(bool)
        rows, cols = np.nonzero(dense)
        return cls(shape=dense.shape, rows=rows.astype(np.int64),
                   cols=cols.astype(np.int64))

    @property
    def nnz(self):
        return len(self.rows)

    def index_bytes(self, idx_bytes=1):
        if max(self.shape) > 256 and idx_bytes == 1:
            idx_bytes = 2
        # Two coordinates per non-zero — why CSC wins for our patterns.
        return 2 * self.nnz * idx_bytes
