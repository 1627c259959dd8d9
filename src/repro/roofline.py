"""Roofline model for the attention bottleneck (paper Fig. 3).

The figure plots the S = Q·Kᵀ kernel under three regimes against ViTCoD's
compute roof (256 GOPS) and DDR4 bandwidth roof (76.8 GB/s):

* **Dense ViTs** — full n² scores, Q/K loaded once: intensity ≈ 3.9 Op/B;
* **Sparse ViTs** — 90 %-pruned diagonal masks processed naively: every
  non-zero fetches its own Q and K vectors (no reuse), intensity ≈ 0.6 Op/B,
  deep in the bandwidth-bound region *despite* doing 10× less work;
* **ViTCoD** — polarization restores streaming reuse and the AE halves Q/K
  bytes, pushing the operating point toward the ridge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hw.params import VITCOD_DEFAULT, HardwareConfig

__all__ = ["RooflinePoint", "attainable_gops", "sddmm_roofline_points",
           "ridge_intensity"]


@dataclass(frozen=True)
class RooflinePoint:
    """One kernel placed on the roofline."""

    name: str
    ops: float
    bytes: float
    config: HardwareConfig = VITCOD_DEFAULT

    @property
    def intensity(self):
        """Operational intensity in Ops/Byte."""
        if self.bytes == 0:
            return float("inf")
        return self.ops / self.bytes

    @property
    def attainable_gops(self):
        return attainable_gops(self.intensity, self.config)

    @property
    def bound(self):
        """Which roof limits this kernel: 'memory' or 'compute'."""
        ridge = ridge_intensity(self.config)
        return "memory" if self.intensity < ridge else "compute"


def attainable_gops(intensity, config=VITCOD_DEFAULT):
    """min(peak compute, bandwidth × intensity), in GOPS."""
    if intensity < 0:
        raise ValueError("intensity must be non-negative")
    bandwidth_gbps = config.dram_bandwidth_bytes_per_s / 1e9
    return min(config.peak_gops, bandwidth_gbps * intensity)


def ridge_intensity(config=VITCOD_DEFAULT):
    """Intensity at which the two roofs meet (Ops/Byte)."""
    return config.peak_gops / (config.dram_bandwidth_bytes_per_s / 1e9)


def sddmm_roofline_points(num_tokens=197, embed_dim=768, sparsity=0.9,
                          ae_compression=0.5, locality=0.9,
                          config=VITCOD_DEFAULT):
    """The three Fig. 3 operating points for one attention layer's SDDMM.

    ``locality`` is the post-reorder streaming-locality fraction of sparse
    non-zeros (from the mask; see ``repro.hw.workload``).
    """
    n, d = num_tokens, embed_dim
    b = config.bytes_per_element
    dense_ops = n * n * d  # MACs, all heads folded into d (paper's op convention)
    qk_bytes = 2 * n * d * b

    dense = RooflinePoint("dense-vits", ops=dense_ops, bytes=qk_bytes,
                          config=config)

    nnz_scores = (1.0 - sparsity) * n * n
    sparse_ops = nnz_scores * d
    # Naive sparse: per-score Q and K vector fetches, no reuse.
    sparse_bytes = nnz_scores * 2 * d * b
    sparse = RooflinePoint("sparse-vits", ops=sparse_ops, bytes=sparse_bytes,
                           config=config)

    # ViTCoD: streams Q and K once (compressed), only the non-local fraction
    # pays scattered fetches (also compressed).
    scattered = nnz_scores * (1.0 - locality)
    vitcod_bytes = qk_bytes * ae_compression + scattered * d * b * ae_compression
    vitcod = RooflinePoint("vitcod", ops=sparse_ops, bytes=vitcod_bytes,
                           config=config)
    return [dense, sparse, vitcod]
