"""Tests for the roofline model (Fig. 3)."""

import pytest

from repro.hw import VITCOD_DEFAULT
from repro.roofline import (
    RooflinePoint,
    attainable_gops,
    ridge_intensity,
    sddmm_roofline_points,
)


class TestRoofs:
    def test_compute_roof_is_256_gops(self):
        assert VITCOD_DEFAULT.peak_gops == pytest.approx(256.0)

    def test_ridge(self):
        # 256 GOPS / 76.8 GB/s = 3.33 Ops/Byte.
        assert ridge_intensity() == pytest.approx(256 / 76.8)

    def test_attainable_below_ridge_is_bandwidth(self):
        assert attainable_gops(1.0) == pytest.approx(76.8)

    def test_attainable_above_ridge_is_peak(self):
        assert attainable_gops(100.0) == pytest.approx(256.0)

    def test_negative_intensity_raises(self):
        with pytest.raises(ValueError):
            attainable_gops(-1.0)


class TestPoints:
    def test_three_regimes(self):
        pts = {p.name: p for p in sddmm_roofline_points()}
        assert set(pts) == {"dense-vits", "sparse-vits", "vitcod"}

    def test_sparse_is_memory_bound(self):
        pts = {p.name: p for p in sddmm_roofline_points()}
        assert pts["sparse-vits"].bound == "memory"
        # Paper: ~0.6 Ops/Byte — deep in the bandwidth-bound region.
        assert pts["sparse-vits"].intensity < 1.0

    def test_dense_is_compute_bound(self):
        pts = {p.name: p for p in sddmm_roofline_points()}
        assert pts["dense-vits"].bound == "compute"

    def test_vitcod_recovers_intensity(self):
        pts = {p.name: p for p in sddmm_roofline_points()}
        assert (pts["sparse-vits"].intensity
                < pts["vitcod"].intensity
                <= pts["dense-vits"].intensity)

    def test_vitcod_fastest_runtime(self):
        """ViTCoD does the sparse op count at (near-)compute-bound
        throughput: fastest of the three regimes."""
        runtime = {p.name: p.ops / p.attainable_gops
                   for p in sddmm_roofline_points()}
        assert runtime["vitcod"] < runtime["sparse-vits"]
        assert runtime["vitcod"] < runtime["dense-vits"]

    def test_lower_locality_lowers_intensity(self):
        high = {p.name: p for p in sddmm_roofline_points(locality=0.95)}
        low = {p.name: p for p in sddmm_roofline_points(locality=0.3)}
        assert low["vitcod"].intensity < high["vitcod"].intensity

    def test_ae_off_halves_intensity(self):
        on = {p.name: p for p in sddmm_roofline_points(ae_compression=0.5)}
        off = {p.name: p for p in sddmm_roofline_points(ae_compression=1.0)}
        assert off["vitcod"].intensity == pytest.approx(
            on["vitcod"].intensity / 2
        )

    def test_point_with_zero_bytes(self):
        p = RooflinePoint("x", ops=10.0, bytes=0.0)
        assert p.intensity == float("inf")
        assert p.bound == "compute"
