"""Dynamic PE allocation between the Denser and Sparser engines (§V-B.1).

Because the fixed masks are known a priori, the per-layer workload of each
engine can be computed at compile time and MAC lines split proportionally —
"we allocate hardware resource to each engine proportional to its assigned
workload size".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import check_domain

__all__ = ["Allocation", "allocate_mac_lines", "allocate_mac_lines_batched"]


@dataclass(frozen=True)
class Allocation:
    denser_lines: int
    sparser_lines: int


def allocate_mac_lines(total_lines, denser_macs, sparser_macs, reserve_min=1):
    """Split ``total_lines`` proportionally to the two engines' MAC counts.

    Each engine keeps at least ``reserve_min`` lines while it has work; an
    engine with zero work cedes everything to the other.
    """
    check_domain(num_mac_lines=total_lines)
    if denser_macs < 0 or sparser_macs < 0:
        raise ValueError("workload sizes must be non-negative")

    if denser_macs == 0 and sparser_macs == 0:
        half = total_lines // 2
        return Allocation(denser_lines=half, sparser_lines=total_lines - half)
    if sparser_macs == 0:
        return Allocation(denser_lines=total_lines, sparser_lines=0)
    if denser_macs == 0:
        return Allocation(denser_lines=0, sparser_lines=total_lines)

    denser = round(total_lines * denser_macs / (denser_macs + sparser_macs))
    denser = min(max(denser, reserve_min), total_lines - reserve_min)
    return Allocation(denser_lines=denser, sparser_lines=total_lines - denser)


def allocate_mac_lines_batched(total_lines, denser_macs, sparser_macs,
                               reserve_min=1):
    """Vectorized :func:`allocate_mac_lines` over parallel workload arrays.

    Returns ``(denser_lines, sparser_lines)`` int64 arrays; element ``i``
    equals ``allocate_mac_lines(total_lines, denser_macs[i],
    sparser_macs[i])`` exactly (``np.round`` matches :func:`round`'s
    half-to-even on the proportional split).

    ``total_lines`` may itself be an array, broadcasting against the
    workload arrays — the grid-batched DSE path passes a ``(points, 1)``
    design-point column against ``(layers,)`` workloads to allocate every
    (point, layer) pair in one shot, each element still exactly equal to
    the scalar allocator's answer.
    """
    check_domain(num_mac_lines=total_lines)
    total_lines = np.asarray(total_lines, dtype=np.int64)
    denser_macs = np.asarray(denser_macs, dtype=np.int64)
    sparser_macs = np.asarray(sparser_macs, dtype=np.int64)
    if (denser_macs < 0).any() or (sparser_macs < 0).any():
        raise ValueError("workload sizes must be non-negative")

    # The vectorized split needs total_lines * denser_macs exact in int64
    # and both division operands exact in float64; beyond 2**53 numpy's
    # int64 product / float64 conversion would round (or overflow) where
    # Python's big-int arithmetic stays exact, so defer to the scalar
    # allocator for such (far beyond paper-scale) workloads.
    exact_limit = float(2 ** 53)
    if denser_macs.size and total_lines.size and (
        float(denser_macs.max()) * float(total_lines.max()) >= exact_limit
        or float(denser_macs.max()) + float(sparser_macs.max()) >= exact_limit
    ):
        b_total, b_denser, b_sparser = np.broadcast_arrays(
            total_lines, denser_macs, sparser_macs
        )
        pairs = [
            allocate_mac_lines(int(t), int(d), int(s), reserve_min)
            for t, d, s in zip(b_total.ravel(), b_denser.ravel(),
                               b_sparser.ravel())
        ]
        shape = b_total.shape
        return (np.array([p.denser_lines for p in pairs],
                         dtype=np.int64).reshape(shape),
                np.array([p.sparser_lines for p in pairs],
                         dtype=np.int64).reshape(shape))

    total_macs = denser_macs + sparser_macs
    with np.errstate(invalid="ignore", divide="ignore"):
        share = np.round(total_lines * denser_macs / total_macs)
    share = np.clip(share, reserve_min, total_lines - reserve_min)
    share = np.where(total_macs == 0, total_lines // 2, share)
    share = np.where((sparser_macs == 0) & (total_macs > 0),
                     total_lines, share)
    share = np.where((denser_macs == 0) & (total_macs > 0), 0.0, share)
    denser_lines = share.astype(np.int64)
    return denser_lines, total_lines - denser_lines
