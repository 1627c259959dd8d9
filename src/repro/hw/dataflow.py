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
oracle (``tests/analytical_oracle.py``).  The scalar formulas here serve
the baselines: S-stationary SDDMM (Sanger), a dense GEMM on the whole array
(SpAtten's kept-token attention) and the softmax unit (both).  All return
cycle counts and are pure.
"""

from __future__ import annotations

from math import ceil

__all__ = [
    "s_stationary_sddmm_cycles",
    "dense_gemm_cycles",
    "softmax_cycles",
]


def s_stationary_sddmm_cycles(num_products, head_dim, total_macs,
                              pack_efficiency=1.0):
    """Cycles for an S-stationary mapping of ``num_products`` scores.

    One PE per score; a batch of ``total_macs × pack_efficiency`` scores
    retires every ``head_dim`` cycles.  ``pack_efficiency`` < 1 models the
    slots wasted when sparse rows are packed into the rigid array (Sanger's
    pack-and-split).
    """
    if total_macs <= 0:
        raise ValueError("total_macs must be positive")
    if not 0.0 < pack_efficiency <= 1.0:
        raise ValueError(f"pack_efficiency must be in (0, 1], got {pack_efficiency}")
    if num_products == 0:
        return 0
    effective = total_macs * pack_efficiency
    waves = ceil(num_products / effective)
    return waves * head_dim


def dense_gemm_cycles(m, k, n, total_macs, utilization=0.85):
    """Cycles for a dense (m×k)·(k×n) GEMM on the whole reconfigured array."""
    if total_macs <= 0:
        raise ValueError("total_macs must be positive")
    if not 0.0 < utilization <= 1.0:
        raise ValueError(f"utilization must be in (0, 1], got {utilization}")
    macs = m * k * n
    if macs == 0:
        return 0
    return ceil(macs / (total_macs * utilization))


def softmax_cycles(num_scores, num_rows, lanes=8):
    """Cycles in the softmax unit: one exp per kept score plus a two-pass
    (max + normalise) touch per row, all retired ``lanes`` wide."""
    if lanes <= 0:
        raise ValueError("lanes must be positive")
    return ceil((num_scores + 2 * num_rows) / lanes)
