"""The per-head path: the oracle for Algorithm 1's masks and workloads.

``repro.sparsity.pruning`` sorts each head's rows by value and reads the
mask off the k-th largest value of each row, and
``repro.hw.workload.attention_workload`` reads every workload field off the
(H, N, N) mask for all heads at once.  This module keeps the earlier path
they replaced, so both have an independent check: production must agree
with it bit for bit (masks, θp and every workload field).

* :func:`prune_attention_map` / :func:`threshold_for_sparsity` are the
  stable-argsort kernel — a ``kind="stable"`` argsort of every row, once
  for the θp bisection and again per head for the mask — signature for
  signature;
* :func:`synthetic_vit_attention` is the per-head map generator (one
  Gaussian band per head);
* :func:`oracle_attention_workload` is the per-head statistics path: each
  head reordered on its own (``reorder_attention_map``), its sparser block
  stored as a :class:`CSCMatrix` or :class:`COOMatrix` and its band
  locality counted over a dense band (:func:`_band_locality`);
* :func:`oracle_attention_layers` builds a registry model's attention
  layers from those alone.

:class:`COOMatrix` (the format ablation's pattern) and the two statistics
:class:`CSCMatrix` adds to ``repro.formats.CSCMatrix`` live here because
only this path builds them.  A plain module (not a conftest) so the CI
checks can import it with this directory on ``sys.path``.
"""

from dataclasses import dataclass

import numpy as np

from repro import formats
from repro.hw.workload import AttentionWorkload, HeadWorkload
from repro.sparsity import reorder_attention_map

__all__ = [
    "prune_attention_map",
    "threshold_for_sparsity",
    "synthetic_vit_attention",
    "CSCMatrix",
    "COOMatrix",
    "oracle_attention_workload",
    "oracle_attention_layers",
]


def prune_attention_map(attention_map, theta_p, min_keep=1):
    """Per row, keep the stable-descending-argsort prefix reaching θp."""
    attention_map = np.asarray(attention_map, dtype=np.float64)
    if not 0.0 < theta_p <= 1.0:
        raise ValueError(f"theta_p must be in (0, 1], got {theta_p}")
    if min_keep < 1:
        raise ValueError("min_keep must be >= 1")
    if attention_map.ndim == 3:
        return np.stack(
            [prune_attention_map(a, theta_p, min_keep) for a in attention_map]
        )
    if attention_map.ndim != 2:
        raise ValueError(f"expected 2-D or 3-D map, got shape {attention_map.shape}")

    n = attention_map.shape[-1]
    min_keep = min(min_keep, n)
    row_sums = attention_map.sum(axis=-1, keepdims=True)
    row_sums = np.where(row_sums <= 0, 1.0, row_sums)
    probs = attention_map / row_sums

    order = np.argsort(-probs, axis=-1, kind="stable")  # descending
    sorted_probs = np.take_along_axis(probs, order, axis=-1)
    cumulative = np.cumsum(sorted_probs, axis=-1)
    keep_counts = np.argmax(cumulative >= theta_p - 1e-12, axis=-1) + 1
    keep_counts = np.where(cumulative[:, -1] < theta_p - 1e-12, n, keep_counts)
    keep_counts = np.maximum(keep_counts, min_keep)

    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(n)[None, :], axis=-1)
    return ranks < keep_counts[:, None]


def threshold_for_sparsity(attention_map, target_sparsity, tol=5e-3, max_iter=60):
    """Bisect θp over the stable-argsorted cumulative mass of every row."""
    if not 0.0 <= target_sparsity < 1.0:
        raise ValueError(f"target_sparsity must be in [0, 1), got {target_sparsity}")

    attention_map = np.asarray(attention_map, dtype=np.float64)
    rows = attention_map.reshape(-1, attention_map.shape[-1])
    n = rows.shape[-1]
    row_sums = rows.sum(axis=-1, keepdims=True)
    row_sums = np.where(row_sums <= 0, 1.0, row_sums)
    probs = rows / row_sums
    cumulative = np.cumsum(
        np.take_along_axis(probs, np.argsort(-probs, axis=-1, kind="stable"),
                           axis=-1),
        axis=-1,
    )
    total_mass = cumulative[:, -1]

    def sparsity_at(theta):
        keep_counts = np.argmax(cumulative >= theta - 1e-12, axis=-1) + 1
        keep_counts = np.where(total_mass < theta - 1e-12, n, keep_counts)
        return 1.0 - keep_counts.sum() / cumulative.size

    lo, hi = 1e-6, 1.0
    best = hi
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        sparsity = sparsity_at(mid)
        if abs(sparsity - target_sparsity) <= tol:
            return mid
        if sparsity > target_sparsity:
            lo = mid
        else:
            hi = mid
        best = mid
    return best


def synthetic_vit_attention(num_tokens, num_heads=1, num_global_tokens=None,
                            band_width=None, global_strength=6.0,
                            band_strength=4.0, background=0.25, seed=0):
    """The ViT-like map generator, computing each head's band afresh."""
    rng = np.random.default_rng(seed)
    n = num_tokens
    if num_global_tokens is None:
        num_global_tokens = max(1, int(round(0.06 * n)))
    if band_width is None:
        band_width = max(1, int(round(0.04 * n)))

    maps = np.empty((num_heads, n, n))
    idx = np.arange(n)
    for h in range(num_heads):
        width = max(1, band_width + int(rng.integers(-1, 2)))
        dist = np.abs(idx[:, None] - idx[None, :])
        band = band_strength * np.exp(-((dist / width) ** 2))
        base = background * rng.random((n, n))
        scores = base + band
        k = max(1, num_global_tokens + int(rng.integers(-1, 2)))
        global_cols = rng.choice(n, size=min(k, n), replace=False)
        scores[:, global_cols] += global_strength * (
            0.75 + 0.5 * rng.random(len(global_cols)))
        maps[h] = scores / scores.sum(axis=-1, keepdims=True)
    return maps


class CSCMatrix(formats.CSCMatrix):
    """``repro.formats.CSCMatrix`` plus the statistics the per-head path
    reads off it."""

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
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {dense.shape}")
        rows, cols = np.nonzero(dense.astype(bool))
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


def _band_locality(sparser_mask, col_offset, band_width=None):
    """Fraction of non-zeros within ±band_width of the (token) diagonal.

    ``sparser_mask`` has shape (N, N - Ngt); global column index of local
    column j is ``col_offset + j``.  Band width defaults to a small fraction
    of N, the reach of the on-chip Q row cache.
    """
    sparser_mask = np.asarray(sparser_mask, dtype=bool)
    n, m = sparser_mask.shape
    if sparser_mask.sum() == 0:
        return 1.0
    if band_width is None:
        band_width = max(2, n // 24)
    rows = np.arange(n)[:, None]
    cols = col_offset + np.arange(m)[None, :]
    band = np.abs(rows - cols) <= band_width
    return float((sparser_mask & band).sum() / sparser_mask.sum())


def oracle_attention_workload(mask, head_dim, theta_d, index_format="csc",
                              reordered=True):
    """``repro.hw.workload.attention_workload``, one head at a time."""
    heads = []
    for head_mask in np.asarray(mask, dtype=bool):
        if reordered:
            reordered_mask, info = reorder_attention_map(head_mask, theta_d)
            ngt = info.num_global_tokens
            sparser = reordered_mask[:, ngt:]
            denser_nnz = int(reordered_mask[:, :ngt].sum())
        else:
            # The pruning-only ablation: the mask in its original order.
            sparser, ngt, denser_nnz = head_mask, 0, 0
        locality = _band_locality(sparser, col_offset=ngt)
        if index_format == "csc":
            sp = CSCMatrix.from_dense(sparser)
            col_nnz = sp.column_nnz()
        elif index_format == "coo":
            sp = COOMatrix.from_dense(sparser)
            col_nnz = np.asarray(sparser).sum(axis=0)
        else:
            raise ValueError(f"unknown index format {index_format!r}")
        heads.append(HeadWorkload(
            num_tokens=head_mask.shape[-1],
            head_dim=head_dim,
            num_global_tokens=ngt,
            denser_nnz=denser_nnz,
            sparser_nnz=int(np.asarray(sparser).sum()),
            sparser_index_bytes=sp.index_bytes(),
            sparser_locality=locality,
            sparser_column_nnz=col_nnz,
        ))
    return AttentionWorkload(
        num_tokens=mask.shape[-1],
        num_heads=mask.shape[0],
        head_dim=head_dim,
        heads=heads,
        streaming_fallback=reordered,
    )


def oracle_attention_layers(config, sparsity=0.9, theta_d=0.25, seed=0,
                            index_format="csc", reordered=True):
    """``model_workload(...).attention_layers``, every mask and every
    statistic from the oracle.

    Layer ``i`` is seeded ``seed + 101 * i`` over the paper stages, as in
    ``repro.hw.workload.model_workload``.
    """
    layers = []
    for stage in config.paper_stages:
        for _ in range(stage.depth):
            maps = synthetic_vit_attention(stage.num_tokens,
                                           num_heads=stage.num_heads,
                                           seed=seed + 101 * len(layers))
            mask = prune_attention_map(
                maps, threshold_for_sparsity(maps, sparsity))
            layers.append(oracle_attention_workload(
                mask, stage.head_dim, theta_d, index_format=index_format,
                reordered=reordered))
    return layers
