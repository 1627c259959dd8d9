"""Dataflow cost models (paper §V-A, Fig. 11 and Fig. 13).

Three mappings matter:

* **K-stationary SDDMM** (ViTCoD's choice): a K vector stays resident while
  MAC lines compute its column of attention scores, one Q·K dot product per
  line, with the feature dimension spread over a line's MACs and reduced by
  inter-PE accumulation.  Only (q, k) pairs indexed by the mask are issued.
* **S-stationary SDDMM** (Sanger's choice): attention scores map spatially,
  one PE per score, features arriving sequentially with intra-PE
  accumulation.  Q/K are fully reused but sparse patterns must be packed
  into the array, costing utilization, and partial sums occupy PE registers.
* **Output-stationary SpMM** (both phases' second step): V′ rows stay in PE
  registers; S and V stream through.

ViTCoD's own mappings, K-stationary SDDMM and output-stationary SpMM, are
written once, elementwise, in the accelerator's array walk
(:mod:`repro.hw.accelerator`); their scalar forms live with the test
oracle (``tests/analytical_oracle.py``).  The formulas here are the ones
the walks and the baselines share, each written once: S-stationary SDDMM
and its packing efficiency (Sanger, and ViTCoD's dataflow ablation), a
dense GEMM on the whole array (dense layers, SpAtten's kept-token
attention), the softmax unit, and the K-tile count of the Q re-stream.
The cycle formulas take Python numbers or numpy arrays alike (they
broadcast elementwise); a scalar call returns an int, as ``math.ceil``
does, and an array call a float array.  All are pure.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "s_stationary_sddmm_cycles",
    "pack_efficiency",
    "dense_gemm_cycles",
    "softmax_cycles",
    "k_tiles",
]


def _cycles(value):
    """A rounded-up cycle count as the caller passed it: an int for a
    scalar, the float array for an array."""
    return int(value) if np.ndim(value) == 0 else value


def s_stationary_sddmm_cycles(num_products, head_dim, total_macs,
                              pack_efficiency=1.0):
    """Cycles for an S-stationary mapping of ``num_products`` scores.

    One PE per score; a batch of ``total_macs × pack_efficiency`` scores
    retires every ``head_dim`` cycles.  ``pack_efficiency`` < 1 models the
    slots wasted when sparse rows are packed into the rigid array (Sanger's
    pack-and-split).
    """
    if np.any(np.asarray(total_macs) <= 0):
        raise ValueError("total_macs must be positive")
    eff = np.asarray(pack_efficiency)
    if not np.all((0.0 < eff) & (eff <= 1.0)):
        raise ValueError(f"pack_efficiency must be in (0, 1], got {pack_efficiency}")
    effective = total_macs * pack_efficiency
    return _cycles(np.where(
        num_products > 0, np.ceil(num_products / effective) * head_dim, 0.0
    ))


def pack_efficiency(layer, width):
    """Fraction of a rigid spatial array's PE slots that hold real
    non-zeros when each row's ``r`` non-zeros are packed into
    ``ceil(r / width) * width`` slots (floored at 0.05)."""
    stats = layer.head_stats()
    head_nnz = stats.denser_nnz + stats.sparser_nnz
    per_row = np.maximum(head_nnz / stats.tokens, 1)
    slot_rows = np.ceil(per_row / width) * width
    slots = int((slot_rows * stats.tokens).sum())
    if slots == 0:
        return 1.0
    return min(1.0, max(int(head_nnz.sum()) / slots, 0.05))


def dense_gemm_cycles(m, k, n, total_macs, utilization=0.85):
    """Cycles for a dense (m×k)·(k×n) GEMM on the whole reconfigured array."""
    if total_macs <= 0:
        raise ValueError("total_macs must be positive")
    if not 0.0 < utilization <= 1.0:
        raise ValueError(f"utilization must be in (0, 1], got {utilization}")
    macs = m * k * n
    return _cycles(np.where(
        macs > 0, np.ceil(macs / (total_macs * utilization)), 0.0
    ))


def softmax_cycles(num_scores, num_rows, lanes=8):
    """Cycles in the softmax unit: one exp per kept score plus a two-pass
    (max + normalise) touch per row, all retired ``lanes`` wide."""
    if lanes <= 0:
        raise ValueError("lanes must be positive")
    return _cycles(np.ceil((num_scores + 2 * num_rows) / lanes))


def k_tiles(tensor_bytes, ratio, act_buffer_bytes):
    """K tiles of the SDDMM phase, so Q re-streams once per tile: the K/S
    buffer holds half the activation buffer, and K stays compressed on
    chip (``ratio``, the AE's byte ratio), which widens its window."""
    return np.maximum(1, np.ceil(tensor_bytes * ratio / (act_buffer_bytes / 2)))
