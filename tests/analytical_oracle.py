"""The scalar analytical model: the oracle for ViTCoD's array walks.

``repro.hw.accelerator`` writes the §V model once, as two array walks:
attention layers over (points × layers) and dense GEMMs over (gemms,).
Every surface is a case of them, one layer and one GEMM included.  This
module keeps the scalar model the walks replaced, one layer or one GEMM
at a time with Python numbers: K-stationary SDDMM with the two-pronged
split, output-stationary SpMM, and dense layers on the reconfigured
array.  The walks must match it bit for bit: each one-layer and one-GEMM
report equals its report here (latency, energy and ``details``), and each
walk total equals :func:`fold` of its reports.

Each function takes the accelerator whose design point it models and
reads only its fields.  The dataflow formulas the walks share with the
baselines (``repro.hw.dataflow``) are copied here in their scalar form,
so the oracle stays independent of them.  A plain module (not a conftest)
so the per-point oracle (``per_point.py``), the benchmarks and the CI
checks can import it with this directory on ``sys.path``.
"""

from math import ceil

import numpy as np

from repro.hw.allocator import allocate_mac_lines
from repro.hw.trace import EnergyBreakdown, LatencyBreakdown, SimReport
from repro.sim import merge_results

__all__ = [
    "k_stationary_sddmm_cycles",
    "output_stationary_spmm_cycles",
    "simulate_attention_layer",
    "simulate_gemm",
    "fold",
    "walk_gemm",
]


def walk_gemm(accel, gemm):
    """One GEMM through the production GEMM walk, as one report: the side
    :func:`simulate_gemm` is held to.

    ``details`` holds its MACs (``mac_count``, encoder MACs included) and
    DRAM bytes (``dram_bytes``).
    """
    walk = accel._gemm_walk([gemm])
    details = {key: float(walk[key][0]) for key in ("mac_count", "dram_bytes")}
    return accel._report(gemm.name, walk, details)


def s_stationary_sddmm_cycles(num_products, head_dim, total_macs,
                              pack_efficiency=1.0):
    """Cycles for an S-stationary mapping: one PE per score, a batch of
    ``total_macs × pack_efficiency`` scores every ``head_dim`` cycles."""
    if num_products == 0:
        return 0
    return ceil(num_products / (total_macs * pack_efficiency)) * head_dim


def dense_gemm_cycles(m, k, n, total_macs, utilization=0.85):
    """Cycles for a dense (m×k)·(k×n) GEMM on the whole array."""
    macs = m * k * n
    if macs == 0:
        return 0
    return ceil(macs / (total_macs * utilization))


def softmax_cycles(num_scores, num_rows, lanes=8):
    """One exp per kept score plus two touches per row, ``lanes`` wide."""
    return ceil((num_scores + 2 * num_rows) / lanes)


def pack_efficiency(accel, layer):
    """The S-stationary ablation's packing efficiency: rows of ``r``
    non-zeros fill ``ceil(max(r, 1) / W) * W`` slots, ``W`` two MAC
    lines wide, floored at 0.05."""
    width = accel.config.macs_per_line * 2
    stats = layer.head_stats()
    per_row = (stats.denser_nnz + stats.sparser_nnz) / stats.tokens
    slot_rows = np.ceil(np.maximum(per_row, 1) / width) * width
    slots = int((slot_rows * stats.tokens).sum())
    nnz = layer.total_nnz
    return min(1.0, max(nnz / slots, 0.05)) if slots else 1.0


def k_stationary_sddmm_cycles(num_products, head_dim, mac_lines, macs_per_line=8):
    """Cycles for ``num_products`` masked Q·K dot products on ``mac_lines``.

    Each line computes one dot product in ``ceil(head_dim / macs_per_line)``
    cycles (feature dim mapped spatially, inter-PE accumulation — Fig. 12 ❶);
    lines work on different products in parallel.
    """
    if mac_lines <= 0:
        raise ValueError("mac_lines must be positive")
    if num_products == 0:
        return 0
    cycles_per_wave = ceil(head_dim / macs_per_line)
    waves = ceil(num_products / mac_lines)
    return waves * cycles_per_wave


def output_stationary_spmm_cycles(nnz, head_dim, mac_lines, macs_per_line=8):
    """Cycles for S·V with V′ rows stationary (intra-PE accumulation, ❷).

    Every kept attention score drives a ``head_dim``-wide AXPY into its V′
    row; a line retires ``macs_per_line`` features per cycle.
    """
    if mac_lines <= 0:
        raise ValueError("mac_lines must be positive")
    if nnz == 0:
        return 0
    cycles_per_update = ceil(head_dim / macs_per_line)
    waves = ceil(nnz / mac_lines)
    return waves * cycles_per_update


def _charge_energy(energy, config, macs, dram_bytes, cycles):
    e = config.energy
    energy.mac += macs * e.mac_pj
    energy.dram += dram_bytes * e.dram_byte_pj
    # SRAM: fills/drains mirror DRAM traffic; operand fetch is amortised
    # by MAC-line broadcast (one K vector feeds a whole line).
    sram_bytes = 2 * dram_bytes + macs * config.bytes_per_element / 4
    energy.sram += sram_bytes * e.sram_byte_pj
    energy.static += cycles * e.static_pj_per_cycle


def simulate_attention_layer(accel, layer):
    """One attention layer on ``accel``'s design point, scalar."""
    cfg = accel.config
    b = cfg.bytes_per_element
    bpc = cfg.bytes_per_cycle
    n, d = layer.num_tokens, layer.embed_dim
    dk, H = layer.head_dim, layer.num_heads
    ratio = accel.ae_compression if accel.use_ae else 1.0

    latency = LatencyBreakdown()
    energy = EnergyBreakdown()
    mac_count = 0
    dram_bytes = 0

    # ---------------- preprocess: CSC/COO index preload ------------
    idx_bytes = layer.index_bytes()
    latency.preprocess += idx_bytes / bpc
    dram_bytes += idx_bytes

    # ---------------- SDDMM phase ----------------------------------
    # Q and K each stream through once in head-sized chunks, compressed
    # by the AE ratio when the AE datapath is on; the K/S buffer holds a
    # token window across every head, and Q re-streams once per K tile.
    # Sparser-region non-zeros off the diagonal band trigger scattered
    # per-token Q fetches, mitigated by query-based forwarding; the
    # decoder is sized to sustain DRAM line rate (energy and MACs only).
    tensor_bytes = n * d * b  # one of Q / K / V, decoded
    k_window_bytes = cfg.act_buffer_bytes / 2
    k_tiles = max(1, ceil(tensor_bytes * ratio / k_window_bytes))
    stream_bytes = tensor_bytes * ratio * (1 + k_tiles)  # K once + Q/tile
    fwd = accel.q_forwarding_hit_rate if accel.two_pronged else 0.0
    # With reordered masks the scheduler may fall back to one extra full
    # (compressed) sequential Q stream; without reordering the raw
    # per-token fetches stand, amplified by DRAM row misses.
    scatter_raw = layer.scattered_nnz * dk * b * ratio * (1.0 - fwd)
    if layer.streaming_fallback:
        scatter_bytes = min(scatter_raw, tensor_bytes * ratio)
    else:
        scatter_bytes = scatter_raw * accel._scatter_amplification
    sddmm_dram = stream_bytes + scatter_bytes
    dram_bytes += sddmm_dram

    # Decoder work: every compressed element read back costs H MACs to
    # reconstruct the full head dimension (enc weight is Hc×H).
    decode_macs = int(sddmm_dram / b) * H if accel.use_ae else 0
    memory_cycles = sddmm_dram / bpc

    compute_lines = cfg.num_mac_lines
    stats = layer.head_stats()
    denser_products = int((stats.global_tokens * stats.tokens).sum())
    sparser_products = int(stats.sparser_nnz.sum())
    denser_macs = denser_products * dk
    sparser_macs = sparser_products * dk

    if accel.dataflow == "s_stationary":
        # Ablation: Sanger-style spatial mapping on the same workload.
        eff = pack_efficiency(accel, layer)
        sddmm_compute = s_stationary_sddmm_cycles(
            denser_products + sparser_products,
            dk,
            compute_lines * cfg.macs_per_line,
            pack_efficiency=eff,
        )
    elif accel.two_pronged:
        alloc = allocate_mac_lines(compute_lines, denser_macs, sparser_macs)
        denser_cycles = k_stationary_sddmm_cycles(
            denser_products, dk, max(alloc.denser_lines, 1), cfg.macs_per_line
        ) if denser_products else 0
        sparser_cycles = k_stationary_sddmm_cycles(
            sparser_products, dk, max(alloc.sparser_lines, 1), cfg.macs_per_line
        ) if sparser_products else 0
        sddmm_compute = max(denser_cycles, sparser_cycles)
    else:
        # Single-engine ablation: utilization degrades with the
        # coefficient of variation of per-column work (§III-A).
        single_util = 0.9 / (1.0 + 0.3 * layer.column_cv())
        sddmm_compute = ceil(
            (
                k_stationary_sddmm_cycles(
                    denser_products, dk, compute_lines, cfg.macs_per_line
                )
                + k_stationary_sddmm_cycles(
                    sparser_products, dk, compute_lines, cfg.macs_per_line
                )
            )
            / max(single_util, 0.1)
        )

    phase = max(sddmm_compute, memory_cycles)
    latency.compute += sddmm_compute
    latency.data_movement += phase - sddmm_compute
    mac_count += denser_macs + sparser_macs + decode_macs

    # ---------------- SpMM phase -----------------------------------
    # V streams in and V' writes back uncompressed (the AE covers Q/K
    # only); scattered S non-zeros gather their V rows individually, with
    # the same fallback rule as above.
    spmm_scatter_raw = layer.scattered_nnz * dk * b
    if layer.streaming_fallback:
        spmm_scatter = min(spmm_scatter_raw, tensor_bytes)
    else:
        spmm_scatter = spmm_scatter_raw * accel._scatter_amplification
    spmm_dram = 2 * tensor_bytes + spmm_scatter
    dram_bytes += spmm_dram
    total_nnz = layer.total_nnz
    spmm_compute = output_stationary_spmm_cycles(
        total_nnz, dk, cfg.num_mac_lines, cfg.macs_per_line
    )
    spmm_phase = max(spmm_compute, spmm_dram / bpc)
    latency.compute += spmm_compute
    latency.data_movement += spmm_phase - spmm_compute
    mac_count += layer.spmm_macs

    # ---------------- softmax --------------------------------------
    # Per-engine softmax units overlap SDDMM/SpMM (Fig. 12): only the
    # excess over the MAC-side busy time lands on the critical path.
    sm_cycles = softmax_cycles(total_nnz, n * H, lanes=cfg.softmax_lanes)
    latency.compute += max(0, sm_cycles - (phase + spmm_phase))
    energy.other += total_nnz * cfg.energy.softmax_op_pj

    _charge_energy(energy, cfg, mac_count, dram_bytes, latency.total)
    return SimReport(
        platform=accel.name,
        workload=f"attention(n={n}, H={H}, dk={dk})",
        latency=latency,
        energy=energy,
        frequency_hz=cfg.frequency_hz,
        details={
            "sddmm_compute": sddmm_compute,
            "mac_count": mac_count,
            "dram_bytes": dram_bytes,
        },
    )


def simulate_gemm(accel, gemm):
    """One dense GEMM on ``accel``'s reconfigured array, scalar."""
    cfg = accel.config
    b = cfg.bytes_per_element
    compute = dense_gemm_cycles(gemm.m, gemm.k, gemm.n, cfg.total_macs)

    out_ratio = 1.0
    encode_macs = 0
    if gemm.name.endswith(".qkv") and accel.use_ae:
        # QKV generation: Q and K (2/3 of the output) are encoded before
        # the off-chip writeback; the encoder engine is pipelined behind
        # the GEMM (§V-B.2) so only its energy is charged.
        out_ratio = (2 * accel.ae_compression + 1) / 3
        encode_macs = int(gemm.m * gemm.n * (2 / 3) * accel.ae_compression)

    traffic = (gemm.weight_bytes(b) + gemm.m * gemm.k * b
               + gemm.m * gemm.n * b * out_ratio)
    phase = max(compute, traffic / cfg.bytes_per_cycle)

    latency = LatencyBreakdown(compute=compute, data_movement=phase - compute)
    energy = EnergyBreakdown()
    _charge_energy(energy, cfg, gemm.macs + encode_macs, traffic, latency.total)
    return SimReport(
        platform=accel.name,
        workload=gemm.name,
        latency=latency,
        energy=energy,
        frequency_hz=cfg.frequency_hz,
        details={"dram_bytes": traffic, "mac_count": gemm.macs + encode_macs},
    )


def fold(accel, workload, end_to_end=False):
    """Every attention layer's report (and, end to end, every GEMM's)
    folded left to right with ``merge_results``."""
    reports = [simulate_attention_layer(accel, layer)
               for layer in workload.attention_layers]
    if end_to_end:
        reports += [simulate_gemm(accel, gemm)
                    for gemm in workload.linear_layers]
    return merge_results(reports)
