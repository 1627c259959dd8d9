"""Behavioral simulator of Sanger (Lu et al., MICRO 2021) running ViTs.

Sanger is the strongest prior co-design the paper compares against.  Its
pipeline, reproduced here at the same modelling altitude as our ViTCoD
simulator:

1. **Mask prediction** (preprocess): a full dense Q·Kᵀ in low precision to
   estimate attention scores, followed by threshold + pack-and-split of the
   resulting dynamic mask.  This is the price of supporting NLP's
   input-dependent sparsity — on ViTs with fixed masks it is pure overhead.
2. **S-stationary SDDMM**: scores map spatially onto the reconfigurable PE
   array after packing sparse rows into dense segments; packing efficiency
   is *computed from the actual mask* (diagonal ViT patterns pack poorly
   because rows hold few non-zeros relative to the segment width).
3. **SpMM** at the same packing efficiency.

Q/K/V are fully reused once on chip (the S-stationary advantage), but the
n²-sized partial-sum surface spills tiles through the global buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from ..hw.dataflow import pack_efficiency, s_stationary_sddmm_cycles, softmax_cycles
from ..hw.params import VITCOD_DEFAULT, HardwareConfig
from ..hw.trace import EnergyBreakdown, LatencyBreakdown, SimReport
from ..hw.workload import AttentionWorkload
from ..sim.engine import ModelSimulatorBase
from .calibration import SANGER_CALIBRATION

__all__ = ["SangerSimulator"]


@dataclass
class SangerSimulator(ModelSimulatorBase):
    """Sanger at a hardware configuration comparable to ViTCoD (§VI-A:
    "we implement and simulate both of them on ViTs with similar hardware
    configurations and areas for fair comparisons")."""

    config: HardwareConfig = None
    low_precision_speedup: float = SANGER_CALIBRATION["low_precision_speedup"]
    pack_width: int = SANGER_CALIBRATION["pack_width"]
    spill_s_tiles: bool = SANGER_CALIBRATION["spill_s_tiles"]
    #: dynamic_masks=False models an (hypothetical) Sanger given ViTCoD's
    #: fixed masks for free — used by the §VI-B NLP normalisation.
    dynamic_masks: bool = True
    name: str = "Sanger"

    def __post_init__(self):
        if self.config is None:
            self.config = VITCOD_DEFAULT

    # ------------------------------------------------------------------
    def simulate_attention_layer(self, layer: AttentionWorkload) -> SimReport:
        cfg = self.config
        b = cfg.bytes_per_element
        bpc = cfg.bytes_per_cycle
        n, d = layer.num_tokens, layer.embed_dim
        dk, H = layer.head_dim, layer.num_heads

        latency = LatencyBreakdown()
        energy = EnergyBreakdown()
        macs = 0
        dram = 0

        # ---- mask prediction + pack-and-split (dynamic masks only) ----
        if self.dynamic_masks:
            pred_macs = n * n * dk * H
            pred_cycles = ceil(
                pred_macs / (cfg.total_macs * self.low_precision_speedup)
            )
            pack_cycles = ceil(n * n * H / (cfg.total_macs / 2))
            latency.preprocess += pred_cycles + pack_cycles
            macs += pred_macs // 4  # 4-bit MACs charged at quarter energy
            # Low-precision Q/K for the prediction pass, plus the dense
            # quantised score surface written out for the packer and read
            # back (the dynamic-mask metadata round-trip ViTCoD's fixed
            # masks avoid — Table I "Off-chip traffic: High").
            dram += 2 * n * d * b // 4
            dram += 2 * (n * n * H) // 2  # 4-bit scores, write + read

        # ---- operand streams (full reuse: loaded once) ------------------
        stream = 3 * n * d * b + n * d * b  # Q, K, V in; V' out
        if self.spill_s_tiles:
            resident = cfg.output_buffer_bytes
            s_bytes = layer.total_nnz * b
            spill = max(0, s_bytes - resident)
            stream += 2 * spill  # spill out + reload for SpMM
        dram += stream

        # ---- SDDMM (S-stationary on packed rows) ------------------------
        eff = pack_efficiency(layer, self.pack_width)
        sddmm_products = layer.total_nnz
        sddmm_compute = s_stationary_sddmm_cycles(
            sddmm_products, dk, cfg.total_macs, pack_efficiency=eff
        )
        macs += sddmm_products * dk

        # ---- SpMM --------------------------------------------------------
        spmm_compute = s_stationary_sddmm_cycles(
            layer.total_nnz, dk, cfg.total_macs, pack_efficiency=eff
        )
        macs += layer.total_nnz * dk

        compute = sddmm_compute + spmm_compute
        memory = stream / bpc
        phase = max(compute, memory)
        latency.compute += compute
        latency.data_movement += phase - compute

        sm = softmax_cycles(layer.total_nnz, n * H, lanes=cfg.softmax_lanes)
        latency.compute += max(0, sm - phase)
        energy.other += layer.total_nnz * cfg.energy.softmax_op_pj

        e = cfg.energy
        # Sanger's PEs sit in a reconfigurable pack-and-split fabric; the
        # dynamic routing costs extra energy per MAC relative to ViTCoD's
        # fixed-function MAC lines.
        reconfig_factor = 1.5
        energy.mac += macs * e.mac_pj * reconfig_factor
        energy.dram += dram * e.dram_byte_pj
        # S-stationary re-fetches both operands from the buffers every wave
        # (partial sums stay put, operands do not), so SRAM traffic scales
        # with the full operand footprint per product.
        energy.sram += (2 * dram + macs * b / 2) * e.sram_byte_pj
        energy.static += latency.total * e.static_pj_per_cycle

        return SimReport(
            platform=self.name,
            workload=f"attention(n={n}, H={H}, dk={dk})",
            latency=latency,
            energy=energy,
            frequency_hz=cfg.frequency_hz,
            details={"pack_efficiency": eff, "dram_bytes": dram, "mac_count": macs},
        )

    # ------------------------------------------------------------------
    # Whole models: driven by repro.sim's shared accumulation base.
    # ------------------------------------------------------------------
    def _dense_simulator(self):
        # Dense layers run on the same MAC array reconfigured for GEMM —
        # identical to ViTCoD's dense path (no AE writeback compression).
        from ..hw.accelerator import ViTCoDAccelerator

        return ViTCoDAccelerator(config=self.config, use_ae=False,
                                 name=self.name)
