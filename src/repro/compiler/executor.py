"""Functional executor: runs the polarized sparse-attention pipeline on real
tensors the way the hardware would, for numerical validation.

The performance simulator (:mod:`repro.hw`) models *time*; this executor
models *values*.  For each head it reorders tokens by the Algorithm-1
permutation, computes the denser block densely (global-token columns), walks
the sparser remainder column-by-column through its CSC index (exactly the
K-stationary order the sparser engine uses), applies a masked softmax, and
performs the SpMM.  The result must match — to floating-point tolerance — a
dense masked-attention reference, which the test suite asserts.
"""

from __future__ import annotations

import numpy as np

from ..formats.sparse import CSCMatrix
from ..sparsity.split_conquer import SplitConquerResult

__all__ = ["execute_attention_layer"]


def execute_attention_layer(q, k, v, result: SplitConquerResult, scale=None):
    """Execute one layer through the two-engine pipeline.

    Parameters
    ----------
    q, k, v:
        Arrays of shape (H, N, dk) in the ORIGINAL token order.
    result:
        Split-and-conquer output carrying the per-head permutations, the
        denser/sparser partition, and the mask.

    Returns
    -------
    ndarray (H, N, dk)
        Attention output in the original token order.
    """
    q, k, v = (np.asarray(x, dtype=np.float64) for x in (q, k, v))
    num_heads, n, dk = q.shape
    if num_heads != result.num_heads or n != result.num_tokens:
        raise ValueError(
            f"tensor shape ({num_heads}, {n}) does not match split-conquer "
            f"result ({result.num_heads}, {result.num_tokens})"
        )
    scale = scale if scale is not None else 1.0 / np.sqrt(dk)

    out = np.empty_like(q)
    for h, part in enumerate(result.partitions):
        perm = part.permutation
        inverse = np.argsort(perm)
        qh, kh, vh = q[h][perm], k[h][perm], v[h][perm]
        ngt = part.num_global_tokens

        # Scores are built column-by-column into a sparse row-major table:
        # dense columns [0, ngt) from the denser engine, CSC-walked columns
        # [ngt, n) from the sparser engine.
        scores = np.full((n, n), -np.inf)

        # Denser engine: K-stationary over the global-token columns; the
        # whole column participates (the block is processed densely), but
        # only mask-kept entries survive into softmax.
        if ngt > 0:
            dense_scores = qh @ kh[:ngt].T * scale  # (n, ngt)
            keep = part.denser_mask  # (n, ngt)
            scores[:, :ngt] = np.where(keep, dense_scores, -np.inf)

        # Sparser engine: CSC walk — resident K column, gather Q rows.
        sparser = CSCMatrix.from_dense(part.sparser_mask)
        for j in range(sparser.shape[1]):
            rows = sparser.column(j)
            if len(rows) == 0:
                continue
            col = ngt + j
            scores[rows, col] = qh[rows] @ kh[col] * scale

        # Softmax unit: row-wise over produced entries.
        row_max = scores.max(axis=1, keepdims=True)
        weights = np.exp(scores - row_max)
        weights[~np.isfinite(scores)] = 0.0
        row_sum = weights.sum(axis=1, keepdims=True)
        if np.any(row_sum == 0):
            raise ValueError(f"head {h} has a fully-pruned row")
        weights /= row_sum

        # SpMM (output-stationary): V' = S · V in reordered space, then
        # un-permute rows back to the original token order.
        out[h] = (weights @ vh)[inverse]
    return out
