"""Metrics quantifying mask structure: sparsity, polarization, balance, reuse.

These back the paper's qualitative claims with numbers:

* *polarization* — how cleanly the mask separates into a dense block plus a
  very sparse remainder (Fig. 8's visual effect);
* *workload imbalance* — variation of per-column non-zeros, the problem the
  two-pronged engine + dynamic allocation solves (§V-B);
* *reuse factors* — how often a loaded K (or Q) vector participates in a MAC,
  the quantity the roofline analysis (Fig. 3) is about.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sparsity",
    "polarization_score",
    "column_imbalance",
    "k_reuse_factor",
    "q_reuse_factor",
    "diagonal_fraction",
    "mask_summary",
]


def _as_mask(mask):
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim == 2:
        mask = mask[None]
    if mask.ndim != 3:
        raise ValueError(f"expected (N,N) or (H,N,N) mask, got {mask.shape}")
    return mask


def sparsity(mask):
    """Fraction of zero entries."""
    return float(1.0 - np.asarray(mask, dtype=bool).mean())


def polarization_score(mask, num_global_tokens):
    """Contrast between denser-block density and sparser-region density.

    1.0 = perfect polarization (dense block fully dense, remainder empty);
    0.0 = no contrast.  ``num_global_tokens`` may be scalar or per-head.
    """
    mask = _as_mask(mask)
    ngt = np.broadcast_to(np.asarray(num_global_tokens), (mask.shape[0],))
    scores = []
    for head_mask, n_global in zip(mask, ngt):
        n_global = int(n_global)
        dense_part = head_mask[:, :n_global]
        sparse_part = head_mask[:, n_global:]
        d_dense = dense_part.mean() if dense_part.size else 1.0
        d_sparse = sparse_part.mean() if sparse_part.size else 0.0
        scores.append(d_dense - d_sparse)
    return float(np.mean(scores))


def column_imbalance(mask):
    """Coefficient of variation of per-column non-zero counts (per head, avg).

    High imbalance ⇒ temporal load imbalance for a K-stationary schedule.
    """
    mask = _as_mask(mask)
    cvs = []
    for head_mask in mask:
        col = head_mask.sum(axis=0).astype(np.float64)
        mean = col.mean()
        cvs.append(0.0 if mean == 0 else col.std() / mean)
    return float(np.mean(cvs))


def k_reuse_factor(mask):
    """Average MACs per loaded K vector = mean non-zeros per *used* column."""
    mask = _as_mask(mask)
    col = mask.sum(axis=1).astype(np.float64)  # (H, N) nnz per column
    used = col > 0
    return float(col[used].mean()) if used.any() else 0.0


def q_reuse_factor(mask):
    """Average MACs per loaded Q vector = mean non-zeros per *used* row."""
    mask = _as_mask(mask)
    row = mask.sum(axis=2).astype(np.float64)
    used = row > 0
    return float(row[used].mean()) if used.any() else 0.0


def diagonal_fraction(mask, band_width=2):
    """Fraction of kept entries lying within ``band_width`` of the diagonal."""
    mask = _as_mask(mask)
    n = mask.shape[-1]
    idx = np.arange(n)
    band = np.abs(idx[:, None] - idx[None, :]) <= band_width
    total = mask.sum()
    if total == 0:
        return 0.0
    return float((mask & band[None]).sum() / total)


def mask_summary(mask, num_global_tokens=None):
    """Dict of all metrics for reporting."""
    out = {
        "sparsity": sparsity(mask),
        "column_imbalance": column_imbalance(mask),
        "k_reuse": k_reuse_factor(mask),
        "q_reuse": q_reuse_factor(mask),
        "diagonal_fraction": diagonal_fraction(mask),
    }
    if num_global_tokens is not None:
        out["polarization"] = polarization_score(mask, num_global_tokens)
    return out
