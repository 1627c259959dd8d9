"""Pruning with fixed masks — the first half of Algorithm 1.

For each query row of an averaged, normalised attention map, keep the
highest-valued attention scores until their cumulative sum reaches the
information-quantity threshold ``θp``, and prune the rest.  The result is a
binary mask that stays **fixed** during finetuning and inference (§IV-B).

**Two layer-wide arrays.**  Pruning one layer's (H, N, N) map holds at
most two float64 arrays of that size: the map, normalised into row
probabilities, and the running sum of every row sorted largest first
(:func:`_cumulative`, filled one head at a time), the one ranking that
θp's bisection reads.  Once θp is known, only each row's keep count is
kept, and each head's mask comes from that head's own sort of its rows
(:func:`_head_mask`): a row that keeps ``k`` entries keeps every entry
above its k-th largest value, so no index sort is needed.  Every other
temporary is one head's size.  :func:`prune_layer` takes over the map it
is given and normalises it in place (the workload builders hand it maps
they just generated); :func:`prune_attention_map` and
:func:`~repro.sparsity.split_and_conquer` normalise into a new array and
never write to their caller's map.

**Stable tie rule.**  Entries tied with the k-th largest value are kept
lowest column index first, until the row holds ``k``.  That is exactly the
set the first ``k`` positions of a stable descending argsort select.

Maps holding NaN or ±inf are rejected before any sort.
"""

from __future__ import annotations

import numpy as np

__all__ = ["prune_attention_map", "prune_layer", "mask_sparsity"]


def _probabilities(attention_map, out=None):
    """Each row of ``attention_map`` over its total mass, into ``out`` (a
    new array by default; the map itself to normalise it in place)."""
    if not np.isfinite(attention_map).all():
        raise ValueError(
            f"attention map of shape {attention_map.shape} has non-finite entries"
        )
    # Renormalise rows so theta_p is a fraction of each row's total mass.
    row_sums = attention_map.sum(axis=-1, keepdims=True)
    return np.divide(attention_map, np.where(row_sums <= 0, 1.0, row_sums),
                     out=out)


def _cumulative(probs):
    """The running sum of each row of ``probs`` (H, N, N), largest entry
    first: one layer-wide array, filled from one head's sort at a time."""
    cumulative = np.empty_like(probs)
    for rows, out in zip(probs, cumulative):
        np.cumsum(np.sort(rows)[:, ::-1], axis=-1, out=out)
    return cumulative


def _keep_counts(cumulative, theta_p):
    """Per row, the largest entries up to the one whose cumulative sum
    first reaches ``theta_p`` (Alg. 1 lines 2-5 accumulate then stop);
    a row whose total mass never reaches it keeps everything."""
    counts = np.argmax(cumulative >= theta_p - 1e-12, axis=-1) + 1
    return np.where(cumulative[..., -1] < theta_p - 1e-12,
                    cumulative.shape[-1], counts)


def _threshold(cumulative, target_sparsity, tol=5e-3, max_iter=60):
    """Bisect θp over the rows' cumulative mass (default ``min_keep``)."""
    if not 0.0 <= target_sparsity < 1.0:
        raise ValueError(f"target_sparsity must be in [0, 1), got {target_sparsity}")
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


def _head_mask(probs, theta_p, floor, counts, out):
    """One head's θp mask, written into ``out``, from the head's own sort.

    ``counts`` are the rows' keep counts when the bisection has already
    read them off the layer's ranking (``None``: count from this sort).
    Ties at the k-th value follow the stable tie rule.
    """
    descending = np.sort(probs)[:, ::-1]
    if counts is None:
        counts = _keep_counts(np.cumsum(descending, axis=-1), theta_p)
    counts = np.maximum(counts, floor)
    kth = np.take_along_axis(descending, counts[:, None] - 1, axis=-1)
    mask = np.greater_equal(probs, kth, out=out)
    surplus = mask.sum(axis=-1) - counts
    crowded = surplus > 0  # rows with more ties at the k-th value than room
    if crowded.any():
        tied = probs[crowded] == kth[crowded]
        tie_rank = np.cumsum(tied, axis=-1)
        room = tie_rank[:, -1:] - surplus[crowded][:, None]
        mask[crowded] &= ~tied | (tie_rank <= room)


def _prune(probs, theta_p, target_sparsity, min_keep):
    """``(mask, θp)`` of row probabilities (H, N, N); θp is bisected for
    ``target_sparsity`` when ``theta_p`` is None."""
    counts = [None] * len(probs)
    if theta_p is None:
        cumulative = _cumulative(probs)
        theta_p = _threshold(cumulative, target_sparsity)
        counts = _keep_counts(cumulative, theta_p)
        del cumulative  # the masks need only each row's count
    if not 0.0 < theta_p <= 1.0:
        raise ValueError(f"theta_p must be in (0, 1], got {theta_p}")
    if min_keep < 1:
        raise ValueError("min_keep must be >= 1")
    floor = min(min_keep, probs.shape[-1])
    mask = np.empty(probs.shape, dtype=bool)
    for head, head_counts, out in zip(probs, counts, mask):
        _head_mask(head, theta_p, floor, head_counts, out)
    return mask, theta_p


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
    probs = _probabilities(attention_map)
    mask, _ = _prune(probs.reshape((-1,) + probs.shape[-2:]), theta_p, None,
                     min_keep)
    return mask.reshape(attention_map.shape)


def prune_layer(maps, target_sparsity):
    """The mask of one layer's maps at ``target_sparsity`` (θp bisected).

    ``maps`` is a freshly generated (H, N, N) float64 array that the call
    takes over: it is normalised in place into row probabilities, so the
    layer's build holds no second copy of it.
    """
    if maps.dtype != np.float64 or maps.ndim != 3:
        raise ValueError(f"expected an (H, N, N) float64 map, got {maps.dtype} "
                         f"of shape {maps.shape}")
    return _prune(_probabilities(maps, out=maps), None, target_sparsity, 1)[0]


def mask_sparsity(mask):
    """Fraction of pruned (zero) entries in a binary mask."""
    mask = np.asarray(mask, dtype=bool)
    return 1.0 - mask.mean()
