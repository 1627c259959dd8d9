"""The stable-argsort pruning kernel: the oracle for Algorithm 1's masks.

``repro.sparsity.pruning`` sorts each layer's rows once, by value, and
reads the mask off the k-th largest value of each row.  This module keeps
the earlier kernel it replaced — a ``kind="stable"`` argsort of every row,
once for the θp bisection and again per head for the mask — so the masks
themselves have an independent check: production must agree with it bit
for bit (masks, θp and every workload field built from them).

* :func:`prune_attention_map` / :func:`threshold_for_sparsity` are the
  argsort kernel, signature for signature;
* :func:`synthetic_vit_attention` is the per-head map generator (one
  Gaussian band per head);
* :func:`oracle_attention_layers` builds a registry model's attention
  layers from those three, through the production reordering and
  workload builder.

A plain module (not a conftest) so the CI checks can import it with this
directory on ``sys.path``.
"""

import numpy as np

from repro.hw.workload import attention_workload_from_masks
from repro.sparsity import HeadPartition, SplitConquerResult, reorder_attention_map

__all__ = [
    "prune_attention_map",
    "threshold_for_sparsity",
    "synthetic_vit_attention",
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


def _oracle_split_and_conquer(maps, target_sparsity, theta_d):
    theta_p = threshold_for_sparsity(maps, target_sparsity)
    mask = prune_attention_map(maps, theta_p)
    partitions = []
    for head_mask in mask:
        reordered, info = reorder_attention_map(head_mask, theta_d)
        partitions.append(HeadPartition(
            reordered_mask=reordered, permutation=info.permutation,
            num_global_tokens=info.num_global_tokens))
    return SplitConquerResult(mask=mask, partitions=partitions,
                              theta_p=theta_p, theta_d=theta_d)


def oracle_attention_layers(config, sparsity=0.9, theta_d=0.25, seed=0,
                            index_format="csc", reordered=True):
    """``model_workload(...).attention_layers``, every mask from the oracle.

    Layer ``i`` is seeded ``seed + 101 * i`` over the paper stages, as in
    ``repro.hw.workload.model_workload``.
    """
    layers = []
    for stage in config.paper_stages:
        for _ in range(stage.depth):
            maps = synthetic_vit_attention(stage.num_tokens,
                                           num_heads=stage.num_heads,
                                           seed=seed + 101 * len(layers))
            result = _oracle_split_and_conquer(maps, sparsity, theta_d)
            layers.append(attention_workload_from_masks(
                result, stage.head_dim, index_format=index_format,
                reordered=reordered))
    return layers
