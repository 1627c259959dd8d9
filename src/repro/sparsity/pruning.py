"""Pruning with fixed masks — the first half of Algorithm 1.

For each query row of an averaged, normalised attention map, keep the
highest-valued attention scores until their cumulative sum reaches the
information-quantity threshold ``θp``, and prune the rest.  The result is a
binary mask that stays **fixed** during finetuning and inference (§IV-B).

**One sort per layer.**  Each row is normalised to unit mass and sorted
once, by value, over the whole (H, N, N) stack (:func:`_rank_rows`).  The
θp bisection and the mask both read that one ranking, and
:func:`~repro.sparsity.split_and_conquer` hands the same ranking to both
steps.  No index sort is needed: a row that keeps ``k`` entries keeps
every entry above its k-th largest value.

**Stable tie rule.**  Entries tied with the k-th largest value are kept
lowest column index first, until the row holds ``k``.  That is exactly the
set the first ``k`` positions of a stable descending argsort select.

Maps holding NaN or ±inf are rejected before any sort.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "prune_attention_map",
    "mask_sparsity",
    "threshold_for_sparsity",
    "mask_for_sparsity",
]


def _rank_rows(attention_map):
    """Normalise each row of ``attention_map`` and sort it once, by value.

    Returns ``(probs, descending, cumulative)``: the row-normalised map in
    its original column order, each of its rows largest value first, and
    the running sum of ``descending``.
    """
    attention_map = np.asarray(attention_map, dtype=np.float64)
    if not np.isfinite(attention_map).all():
        raise ValueError(
            f"attention map of shape {attention_map.shape} has non-finite entries"
        )
    # Renormalise rows so theta_p is a fraction of each row's total mass.
    row_sums = attention_map.sum(axis=-1, keepdims=True)
    probs = attention_map / np.where(row_sums <= 0, 1.0, row_sums)
    descending = np.sort(probs, axis=-1)[..., ::-1]
    return probs, descending, np.cumsum(descending, axis=-1)


def _keep_counts(cumulative, theta_p):
    """Per row, the largest entries up to the one whose cumulative sum
    first reaches ``theta_p`` (Alg. 1 lines 2-5 accumulate then stop);
    a row whose total mass never reaches it keeps everything."""
    counts = np.argmax(cumulative >= theta_p - 1e-12, axis=-1) + 1
    return np.where(cumulative[..., -1] < theta_p - 1e-12,
                    cumulative.shape[-1], counts)


def _prune(ranked, theta_p, min_keep):
    """The θp mask of a ranking, ties broken by the stable tie rule."""
    if not 0.0 < theta_p <= 1.0:
        raise ValueError(f"theta_p must be in (0, 1], got {theta_p}")
    if min_keep < 1:
        raise ValueError("min_keep must be >= 1")
    probs, descending, cumulative = ranked
    counts = np.maximum(_keep_counts(cumulative, theta_p),
                        min(min_keep, probs.shape[-1]))
    kth = np.take_along_axis(descending, counts[..., None] - 1, axis=-1)
    mask = probs >= kth
    surplus = mask.sum(axis=-1) - counts
    crowded = surplus > 0  # rows with more ties at the k-th value than room
    if crowded.any():
        tied = probs[crowded] == kth[crowded]
        tie_rank = np.cumsum(tied, axis=-1)
        room = tie_rank[:, -1:] - surplus[crowded][:, None]
        mask[crowded] &= ~tied | (tie_rank <= room)
    return mask


def _threshold(ranked, target_sparsity, tol=5e-3, max_iter=60):
    """Bisect θp over a ranking's cumulative mass (default ``min_keep``)."""
    if not 0.0 <= target_sparsity < 1.0:
        raise ValueError(f"target_sparsity must be in [0, 1), got {target_sparsity}")
    cumulative = ranked[2]
    lo, hi = 1e-6, 1.0
    best = hi
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        sparsity = 1.0 - _keep_counts(cumulative, mid).sum() / cumulative.size
        if abs(sparsity - target_sparsity) <= tol:
            return mid
        if sparsity > target_sparsity:
            lo = mid  # too sparse → keep more mass
        else:
            hi = mid
        best = mid
    return best


def prune_attention_map(attention_map, theta_p, min_keep=1):
    """Generate the fixed binary mask for one attention map.

    Parameters
    ----------
    attention_map:
        Array of shape (N, N) or (H, N, N); rows should be (approximately)
        normalised attention probabilities.
    theta_p:
        Information-quantity threshold in (0, 1]: per row, the smallest set
        of largest scores whose cumulative (renormalised) sum reaches
        ``theta_p`` is kept.
    min_keep:
        Lower bound on kept entries per row (≥1 so softmax stays defined).

    Returns
    -------
    ndarray of bool, same shape
        True where attention is kept ("1" in the paper's mask).
    """
    attention_map = np.asarray(attention_map, dtype=np.float64)
    if attention_map.ndim not in (2, 3):
        raise ValueError(f"expected 2-D or 3-D map, got shape {attention_map.shape}")
    return _prune(_rank_rows(attention_map), theta_p, min_keep)


def mask_sparsity(mask):
    """Fraction of pruned (zero) entries in a binary mask."""
    mask = np.asarray(mask, dtype=bool)
    return 1.0 - mask.mean()


def threshold_for_sparsity(attention_map, target_sparsity, tol=5e-3, max_iter=60):
    """Bisect ``θp`` so the pruned mask hits ``target_sparsity``.

    The paper sweeps sparsity ratios {50…95}% (§VI-C); this inverts the
    θp → sparsity map, which is monotone (larger θp keeps more entries).
    The rows are sorted once; each iteration only re-derives the per-row
    keep counts from the cumulative mass, exactly as
    :func:`prune_attention_map` (with its default ``min_keep=1``) would.
    """
    return _threshold(_rank_rows(attention_map), target_sparsity, tol, max_iter)


def mask_for_sparsity(attention_map, target_sparsity, tol=5e-3):
    """Convenience: mask whose sparsity is close to ``target_sparsity``."""
    theta_p = threshold_for_sparsity(attention_map, target_sparsity, tol=tol)
    return prune_attention_map(attention_map, theta_p)
