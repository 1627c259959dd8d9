"""Analytical models of general-purpose platforms (CPU / EdgeGPU / GPU).

These platforms execute the *dense* attention workload: the unstructured
90 % sparsity of ViTCoD's masks gives no practical speedup on SIMD/SIMT
hardware (gather-heavy SDDMM kernels at n ≈ 200 are slower than cuBLAS
dense), which is exactly the gap the paper's Fig. 15 quantifies.

Latency = FLOPs / effective-throughput + per-kernel overhead × kernel count.
Effective throughputs and overheads live in
:mod:`repro.baselines.calibration`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.trace import EnergyBreakdown, LatencyBreakdown, SimReport
from ..hw.workload import ModelWorkload
from .calibration import PLATFORM_CALIBRATION

__all__ = ["GeneralPlatform", "cpu_platform", "edgegpu_platform", "gpu_platform"]

#: Reports from analytical platforms use a 1 GHz notional clock so that
#: "cycles" equal nanoseconds.
_NOTIONAL_HZ = 1e9

#: Kernels launched per attention layer: QKᵀ, softmax, SV, plus the
#: reshape/split/concat ops the paper's Fig. 4 profile attributes up to 53 %
#: of self-attention latency to.
_ATTENTION_KERNELS_PER_LAYER = 6


@dataclass(frozen=True)
class GeneralPlatform:
    """Roofline-with-overhead model of one general-purpose platform."""

    name: str
    attention_gflops: float
    gemm_gflops: float
    kernel_overhead_s: float
    pj_per_flop: float

    def simulate_attention(self, model: ModelWorkload) -> SimReport:
        """Core attention (dense S=QKᵀ and S·V) latency and energy."""
        flops = 0
        kernels = 0
        for layer in model.attention_layers:
            flops += 2 * (layer.dense_sddmm_macs + layer.dense_spmm_macs)
            kernels += _ATTENTION_KERNELS_PER_LAYER
        seconds = flops / (self.attention_gflops * 1e9)
        overhead = kernels * self.kernel_overhead_s
        return self._report(model, "attention", seconds, overhead, flops)

    def simulate_model(self, model: ModelWorkload) -> SimReport:
        """End-to-end latency: attention plus all dense GEMMs."""
        attn = self.simulate_attention(model)
        flops = 2 * model.linear_macs
        seconds = flops / (self.gemm_gflops * 1e9)
        overhead = len(model.linear_layers) * self.kernel_overhead_s
        linear = self._report(model, "linear", seconds, overhead, flops)
        merged = attn.merged(linear, workload=f"{model.name}:end2end")
        merged.details = {"flops": attn.details["flops"] + flops}
        return merged

    def _report(self, model, phase, seconds, overhead_s, flops):
        latency = LatencyBreakdown(
            compute=seconds * _NOTIONAL_HZ,
            preprocess=overhead_s * _NOTIONAL_HZ,
        )
        energy = EnergyBreakdown(mac=flops * self.pj_per_flop)
        return SimReport(
            platform=self.name,
            workload=f"{model.name}:{phase}",
            latency=latency,
            energy=energy,
            frequency_hz=_NOTIONAL_HZ,
            details={"flops": flops},
        )


def _make(name):
    return GeneralPlatform(name=name, **PLATFORM_CALIBRATION[name])


def cpu_platform():
    """Intel Xeon Gold 6230R-class server CPU."""
    return _make("cpu")


def edgegpu_platform():
    """Nvidia Jetson Xavier NX-class edge GPU."""
    return _make("edgegpu")


def gpu_platform():
    """Nvidia RTX 2080Ti-class desktop GPU."""
    return _make("gpu")
