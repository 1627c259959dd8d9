"""Synthetic attention-map generators at paper scale.

Training a DeiT-Base (197 tokens, 12×12 heads) in pure numpy is infeasible,
but the hardware evaluation only needs attention maps with the *structure*
real ViTs exhibit (paper Figs. 2 & 8): probability mass concentrated on a
diagonal band (adjacent-patch correlation) plus a few dense global-token
columns, over a weak random background.  These generators produce such maps
deterministically for any (heads, tokens) so every model in Table/Fig. 15
gets a faithful workload without GPUs or ImageNet.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "synthetic_vit_attention",
    "synthetic_nlp_attention",
    "diagonal_band_mask",
    "random_mask",
]


def synthetic_vit_attention(
    num_tokens,
    num_heads=1,
    num_global_tokens=None,
    band_width=None,
    global_strength=6.0,
    band_strength=4.0,
    background=0.25,
    seed=0,
):
    """ViT-like averaged attention maps: diagonal band + global columns.

    Returns a row-normalised array of shape (num_heads, N, N).  Head h gets
    its own randomly-drawn global-token set and slight band-width jitter so
    per-head variation (the reason the accelerator needs dynamic PE
    allocation, §V-B) is present.
    """
    rng = np.random.default_rng(seed)
    n = num_tokens
    if num_global_tokens is None:
        num_global_tokens = max(1, int(round(0.06 * n)))
    if band_width is None:
        band_width = max(1, int(round(0.04 * n)))

    maps = np.empty((num_heads, n, n))
    idx = np.arange(n)
    dist = np.abs(idx[:, None] - idx[None, :])
    bands = {}  # one Gaussian band per distinct jittered width
    for h in range(num_heads):
        width = max(1, band_width + int(rng.integers(-1, 2)))
        if width not in bands:
            bands[width] = band_strength * np.exp(-((dist / width) ** 2))
        scores = rng.random(out=maps[h])
        scores *= background
        scores += bands[width]
        k = max(1, num_global_tokens + int(rng.integers(-1, 2)))
        global_cols = rng.choice(n, size=min(k, n), replace=False)
        scores[:, global_cols] += global_strength * (
            0.75 + 0.5 * rng.random(len(global_cols)))
    maps /= maps.sum(axis=-1, keepdims=True)
    return maps


def synthetic_nlp_attention(num_tokens, num_heads=1, seed=0, heavy_tail=1.2):
    """NLP-like attention: content-dependent, scattered heavy-tailed mass.

    Used by the §VI-B NLP discussion: without positional regularity, fixed
    masks lose accuracy faster, and the non-zeros do not polarize.
    """
    rng = np.random.default_rng(seed)
    scores = rng.pareto(heavy_tail, size=(num_heads, num_tokens, num_tokens)) + 0.05
    return scores / scores.sum(axis=-1, keepdims=True)


def diagonal_band_mask(num_tokens, band_width=1):
    """Pure diagonal-band binary mask (the paper's worst-case reuse pattern)."""
    idx = np.arange(num_tokens)
    return np.abs(idx[:, None] - idx[None, :]) <= band_width


def random_mask(num_tokens, density, num_heads=1, seed=0, ensure_rows=True):
    """Unstructured random mask at a given density (SpGEMM-style pattern)."""
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    rng = np.random.default_rng(seed)
    mask = rng.random((num_heads, num_tokens, num_tokens)) < density
    if ensure_rows:
        empty = ~mask.any(axis=-1)
        heads, rows = np.nonzero(empty)
        cols = rng.integers(0, num_tokens, size=len(rows))
        mask[heads, rows, cols] = True
    return mask
