"""The unified split-and-conquer algorithm (Algorithm 1, end to end).

``split_and_conquer`` takes an averaged attention map, prunes it with a fixed
mask, reorders tokens per head so global tokens lead, and returns the
polarized denser/sparser partition that finetuning installs (the mask) and
Fig. 8 and ``polarize`` draw (the reordered masks).  The accelerator's
workload reads the same statistics straight off the mask
(:func:`repro.hw.workload.attention_workload`), without the per-head
reordered copies built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .pruning import _probabilities, _prune, mask_sparsity
from .reordering import reorder_attention_map

__all__ = ["HeadPartition", "SplitConquerResult", "split_and_conquer"]


@dataclass(frozen=True)
class HeadPartition:
    """Polarized workload of a single attention head."""

    reordered_mask: np.ndarray  # (N, N) bool, tokens permuted
    permutation: np.ndarray  # (N,) new -> old token index
    num_global_tokens: int

    @property
    def num_tokens(self):
        return self.reordered_mask.shape[-1]

    @property
    def denser_mask(self):
        """Columns belonging to the denser (global-token) block."""
        return self.reordered_mask[:, : self.num_global_tokens]

    @property
    def sparser_mask(self):
        """Columns belonging to the sparser (diagonal-ish) remainder."""
        return self.reordered_mask[:, self.num_global_tokens :]

    @property
    def denser_density(self):
        block = self.denser_mask
        return float(block.mean()) if block.size else 0.0

    @property
    def sparser_density(self):
        block = self.sparser_mask
        return float(block.mean()) if block.size else 0.0

    @property
    def denser_nnz(self):
        return int(self.denser_mask.sum())

    @property
    def sparser_nnz(self):
        return int(self.sparser_mask.sum())


@dataclass
class SplitConquerResult:
    """Output of Algorithm 1 for one attention layer (all heads)."""

    mask: np.ndarray  # (H, N, N) pruned mask in the ORIGINAL token order
    partitions: List[HeadPartition]
    theta_p: float
    theta_d: float

    @property
    def num_heads(self):
        return self.mask.shape[0]

    @property
    def num_tokens(self):
        return self.mask.shape[-1]

    @property
    def sparsity(self):
        return mask_sparsity(self.mask)

    @property
    def num_global_tokens(self):
        return np.array([p.num_global_tokens for p in self.partitions])

    def reordered_masks(self):
        return np.stack([p.reordered_mask for p in self.partitions])


def split_and_conquer(
    attention_map,
    theta_p: Optional[float] = None,
    theta_d: float = 0.6,
    target_sparsity: Optional[float] = None,
    min_keep: int = 1,
):
    """Run Algorithm 1 on one layer's averaged attention map.

    Exactly one of ``theta_p`` (the paper's information-quantity threshold)
    or ``target_sparsity`` (used for the paper's sparsity sweeps) must be
    given.  ``theta_d`` is the dense threshold: a fraction of N (when < 1)
    or an absolute per-head column count.

    Parameters
    ----------
    attention_map:
        (N, N) or (H, N, N) averaged, row-normalised attention map.

    Returns
    -------
    SplitConquerResult
    """
    attention_map = np.asarray(attention_map, dtype=np.float64)
    if attention_map.ndim == 2:
        attention_map = attention_map[None]
    if attention_map.ndim != 3:
        raise ValueError(f"expected (H, N, N) map, got shape {attention_map.shape}")

    if (theta_p is None) == (target_sparsity is None):
        raise ValueError("provide exactly one of theta_p or target_sparsity")
    # The row probabilities are a new array: the caller's map is untouched.
    mask, theta_p = _prune(_probabilities(attention_map), theta_p,
                           target_sparsity, min_keep)

    partitions = []
    for head_mask in mask:
        reordered, info = reorder_attention_map(head_mask, theta_d)
        partitions.append(
            HeadPartition(
                reordered_mask=reordered,
                permutation=info.permutation,
                num_global_tokens=info.num_global_tokens,
            )
        )
    return SplitConquerResult(
        mask=mask, partitions=partitions, theta_p=theta_p, theta_d=theta_d
    )
