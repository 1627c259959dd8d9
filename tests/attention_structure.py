"""Attention-structure diagnostics (paper Fig. 2 / §IV-B observations).

The split-and-conquer design rests on two empirical properties of trained
ViT attention: (1) mass concentrates near the diagonal because "adjacent
input tokens/patches tend to have a higher correlation than others", and
(2) a few global tokens absorb mass from every query.  These functions
quantify both on any attention map, so the tests can check that the
synthetic generators and the trained models have them rather than assume
it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "distance_profile",
    "global_column_share",
    "head_agreement",
    "structure_report",
]


def _as_maps(attention_maps):
    maps = np.asarray(attention_maps, dtype=np.float64)
    if maps.ndim == 2:
        maps = maps[None]
    if maps.ndim != 3 or maps.shape[-1] != maps.shape[-2]:
        raise ValueError(f"expected (H, N, N) maps, got {maps.shape}")
    return maps


def distance_profile(attention_maps, max_distance=None):
    """Mean attention mass as a function of token distance |i − j|.

    Returns an array ``profile`` where ``profile[d]`` is the average
    attention probability between tokens ``d`` apart.  For ViT-like maps the
    profile is sharply decreasing near d=0 (the diagonal concentration the
    sparser engine's locality model relies on).
    """
    maps = _as_maps(attention_maps)
    n = maps.shape[-1]
    if max_distance is None:
        max_distance = n - 1
    max_distance = min(max_distance, n - 1)
    idx = np.arange(n)
    dist = np.abs(idx[:, None] - idx[None, :])
    profile = np.empty(max_distance + 1)
    for d in range(max_distance + 1):
        sel = dist == d
        profile[d] = maps[:, sel].mean()
    return profile


def global_column_share(attention_maps, top_k=None):
    """Fraction of total attention mass absorbed by the top-k columns.

    ``top_k`` defaults to ~6 % of tokens (the paper's typical global-token
    count at 197 tokens).  High values mean genuine global tokens exist.
    """
    maps = _as_maps(attention_maps)
    n = maps.shape[-1]
    if top_k is None:
        top_k = max(1, int(round(0.06 * n)))
    top_k = min(top_k, n)
    shares = []
    for head in maps:
        col_mass = head.sum(axis=0)
        top = np.sort(col_mass)[::-1][:top_k].sum()
        shares.append(top / col_mass.sum())
    return float(np.mean(shares))


def head_agreement(attention_maps, top_k=None):
    """Mean pairwise Jaccard overlap of per-head top-k global columns.

    The AE module's hypothesis is cross-head redundancy; heads whose global
    columns agree share Q/K structure the encoder can compress.
    """
    maps = _as_maps(attention_maps)
    num_heads, n, _ = maps.shape
    if num_heads < 2:
        return 1.0
    if top_k is None:
        top_k = max(1, int(round(0.06 * n)))
    tops = [
        set(np.argsort(head.sum(axis=0))[::-1][:top_k].tolist())
        for head in maps
    ]
    overlaps = []
    for i in range(num_heads):
        for j in range(i + 1, num_heads):
            union = tops[i] | tops[j]
            overlaps.append(len(tops[i] & tops[j]) / len(union))
    return float(np.mean(overlaps))


def structure_report(attention_maps):
    """All diagnostics in one dict (used by tests and the CLI)."""
    profile = distance_profile(attention_maps, max_distance=8)
    return {
        "near_mass_ratio": float(profile[:3].mean() / max(profile[3:].mean(),
                                                          1e-12)),
        "distance_profile": profile,
        "global_column_share": global_column_share(attention_maps),
        "head_agreement": head_agreement(attention_maps),
    }
