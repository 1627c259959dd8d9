"""The sparse storage format the functional executor walks.

The sparser engine pre-loads non-zero *indexes* in **CSC** (compressed sparse
column) format — chosen over COO because the K-stationary dataflow produces
attention-map columns one at a time (§V-B.1), so walking a CSC column yields
exactly the Q rows a resident K vector must be multiplied with.  The
workload model needs only the index *bytes* of CSC and of COO (the format
ablation), which :func:`repro.hw.workload.attention_workload` computes from
column counts without building either structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CSCMatrix"]


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
