"""Cycle-level simulator of the ViTCoD accelerator (paper §V, Fig. 12).

The simulator is analytical-event style: for each attention layer it derives
phase times (index preprocess → Q/K load + decode + SDDMM → softmax → SpMM)
from the workload's polarized statistics, models compute/memory overlap by
taking per-phase ``max(compute, memory)``, and attributes the excess memory
time to the ``data_movement`` latency category so Fig. 19's breakdown can be
regenerated.  Dense layers (QKV generation, projections, MLP) reuse the
reconfigured MAC array (§V-B.3).

Key modelled mechanisms, each traceable to the paper:

* K-stationary SDDMM with the denser/sparser two-pronged split and dynamic
  MAC-line allocation (§V-B.1);
* CSC index preloading for the sparser engine (§V-B.1);
* Q streaming per K-tile when the decoded working set exceeds the on-chip
  Q/K buffers, and the AE halving that stream's DRAM traffic (§V-A Opp. 2);
* on-chip encoder/decoder engines whose MAC lines are borrowed from the
  array while active and returned otherwise (§V-B.2);
* output-stationary SpMM keeping V′ in PE registers (Fig. 13b).

Whole-model simulation (the paper's headline Fig. 15/19 numbers) has one
path: ``simulate_attention`` / ``simulate_model`` evaluate every layer and
GEMM as array geometry — per-layer statistics become parallel numpy
arrays and the phase algebra runs elementwise (the design-point grid walk
:meth:`ViTCoDAccelerator.simulate_attention_grid` at P = 1), mirroring the
scalar per-layer expressions of :meth:`ViTCoDAccelerator.simulate_attention_layer`
and :meth:`ViTCoDAccelerator.simulate_gemm` operation for operation.  The
per-layer reports folded with :func:`repro.sim.merge_results` are the test
oracle: the totals agree with that fold bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from ..sim.engine import ModelSimulatorBase
from .allocator import allocate_mac_lines, allocate_mac_lines_batched
from .dataflow import (
    dense_gemm_cycles,
    k_stationary_sddmm_cycles,
    output_stationary_spmm_cycles,
    s_stationary_sddmm_cycles,
    softmax_cycles,
)
from .params import VITCOD_DEFAULT, HardwareConfig, check_domain
from .trace import EnergyBreakdown, LatencyBreakdown, SimReport
from .workload import AttentionWorkload, GemmWorkload, ModelWorkload

__all__ = ["ViTCoDAccelerator"]


def _ordered_sum(values, init=0.0):
    """Left-to-right fold of ``values`` starting at ``init``.

    Merging per-layer reports folds each latency/energy component left to
    right; the array paths reduce their per-layer arrays the same way so
    array and per-layer results agree bit for bit (``np.sum``'s pairwise
    association would not).
    """
    total = init
    for value in values.tolist():
        total += value
    return total


def _fold_rows(values, points):
    """Per-point left-to-right fold over the trailing (layer) axis.

    The (points,)-shaped counterpart of :func:`_ordered_sum`: row ``p`` of
    the result is exactly ``_ordered_sum(values[p])`` (the same sequence
    of IEEE additions, performed as array ops), so grid-batched totals
    match the scalar-config fold bit for bit.  ``values`` may be a plain
    (layers,) array — config-independent components broadcast to every
    point.
    """
    total = np.zeros(points)
    for j in range(values.shape[-1]):
        total = total + values[..., j]
    return total


@dataclass
class ViTCoDAccelerator(ModelSimulatorBase):
    """Configurable ViTCoD design point.

    Parameters
    ----------
    config:
        Hardware resources (defaults to the paper's 512-MAC design).
    use_ae:
        Enable the auto-encoder datapath (encoder/decoder engines +
        compressed Q/K traffic).
    ae_compression:
        Compressed-to-original head ratio (paper: 0.5).
    two_pronged:
        Run denser and sparser engines in parallel with dynamic allocation;
        ``False`` serialises both workloads on the full array (ablation).
    dataflow:
        ``"k_stationary"`` (paper's choice) or ``"s_stationary"`` (ablation).
    enc_dec_lines:
        MAC lines reserved for the decoder while Q/K stream in.
    """

    config: HardwareConfig = None
    use_ae: bool = True
    ae_compression: float = 0.5
    two_pronged: bool = True
    dataflow: str = "k_stationary"
    #: hit rate of query-based Q forwarding: scattered sparser-engine Q
    #: fetches served from the denser engine's resident Q buffer (§V-B.1).
    q_forwarding_hit_rate: float = 0.3
    name: str = "ViTCoD"
    #: DRAM row-miss amplification applied to scattered fetches when no
    #: streaming fallback exists (unreordered masks); see repro.hw.dram.
    _scatter_amplification: float = 1.0

    def __post_init__(self):
        if self.config is None:
            self.config = VITCOD_DEFAULT
        if self.dataflow not in ("k_stationary", "s_stationary"):
            raise ValueError(f"unknown dataflow {self.dataflow!r}")
        check_domain(ae_compression=self.ae_compression,
                     q_forwarding_hit_rate=self.q_forwarding_hit_rate)

    # ------------------------------------------------------------------
    # Attention layer
    # ------------------------------------------------------------------
    def simulate_attention_layer(self, layer: AttentionWorkload) -> SimReport:
        cfg = self.config
        b = cfg.bytes_per_element
        bpc = cfg.bytes_per_cycle
        n, d = layer.num_tokens, layer.embed_dim
        dk, H = layer.head_dim, layer.num_heads
        ratio = self.ae_compression if self.use_ae else 1.0

        latency = LatencyBreakdown()
        energy = EnergyBreakdown()
        mac_count = 0
        dram_bytes = 0

        # ---------------- preprocess: CSC/COO index preload ------------
        idx_bytes = layer.index_bytes()
        latency.preprocess += idx_bytes / bpc
        dram_bytes += idx_bytes

        # ---------------- SDDMM phase ----------------------------------
        # Memory model (see DESIGN.md §"hardware model"):
        #   * Q and K each stream through once, in head-sized chunks that fit
        #     the Q/V and K/S buffers (heads map to MAC-line chunks, §V-B.1),
        #     compressed by the AE ratio when the AE datapath is on;
        #   * sparser-region non-zeros lying off the diagonal band lose that
        #     streaming locality and trigger scattered per-token Q fetches,
        #     mitigated by query-based forwarding from the denser engine's
        #     buffer and by AE compression of the fetched token rows;
        #   * the decoder is sized to sustain DRAM line rate (the paper
        #     pipelines decode behind the stream), so it contributes energy
        #     and MAC work but does not throttle the stream.
        tensor_bytes = n * d * b  # one of Q / K / V, decoded
        # All heads process in parallel (head-per-MAC-line chunks), so the
        # K/S buffer holds a token window across every head; K is kept in
        # compressed form on chip when the AE is active (decoded at line
        # rate into the PE staging registers), which widens the window.
        k_window_bytes = cfg.act_buffer_bytes / 2
        k_tiles = max(1, ceil(tensor_bytes * ratio / k_window_bytes))
        stream_bytes = tensor_bytes * ratio * (1 + k_tiles)  # K once + Q/tile
        fwd = self.q_forwarding_hit_rate if self.two_pronged else 0.0
        # Scattered fetches: with the reordered (polarized) layout the
        # scheduler can fall back to one extra full (compressed) sequential
        # Q stream when scattering would cost more — at low sparsity the
        # "scattered" non-zeros cover most rows and streaming wins.  Without
        # reordering there is no streaming order to fall back to: the raw
        # per-token fetches stand, amplified by DRAM row misses.
        scatter_raw = layer.scattered_nnz * dk * b * ratio * (1.0 - fwd)
        if layer.streaming_fallback:
            scatter_bytes = min(scatter_raw, tensor_bytes * ratio)
        else:
            scatter_bytes = scatter_raw * self._scatter_amplification
        sddmm_dram = stream_bytes + scatter_bytes
        dram_bytes += sddmm_dram

        # Decoder work: every compressed element read back costs H MACs to
        # reconstruct the full head dimension (enc weight is Hc×H).
        decode_macs = int(sddmm_dram / b) * H if self.use_ae else 0
        memory_cycles = sddmm_dram / bpc

        compute_lines = cfg.num_mac_lines
        stats = layer.head_stats()
        denser_products = int((stats.global_tokens * stats.tokens).sum())
        sparser_products = int(stats.sparser_nnz.sum())
        denser_macs = denser_products * dk
        sparser_macs = sparser_products * dk

        if self.dataflow == "s_stationary":
            # Ablation: Sanger-style spatial mapping on the same workload.
            eff = self._s_stationary_pack_efficiency(layer)
            sddmm_compute = s_stationary_sddmm_cycles(
                denser_products + sparser_products,
                dk,
                compute_lines * cfg.macs_per_line,
                pack_efficiency=eff,
            )
        elif self.two_pronged:
            alloc = allocate_mac_lines(compute_lines, denser_macs, sparser_macs)
            denser_cycles = k_stationary_sddmm_cycles(
                denser_products, dk, max(alloc.denser_lines, 1), cfg.macs_per_line
            ) if denser_products else 0
            sparser_cycles = k_stationary_sddmm_cycles(
                sparser_products, dk, max(alloc.sparser_lines, 1), cfg.macs_per_line
            ) if sparser_products else 0
            sddmm_compute = max(denser_cycles, sparser_cycles)
        else:
            # Single-engine ablation: the mixed column population (full
            # global-token columns interleaved with nearly-empty sparse
            # ones) causes temporal load imbalance — MAC lines idle while a
            # heavy column drains.  Utilization degrades with the
            # coefficient of variation of per-column work (§III-A), which
            # the two-pronged split restores by giving each engine a
            # near-uniform population.
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
        # only); scattered S non-zeros outside the streaming window gather
        # their V rows individually, with the same fallback rule as above.
        spmm_scatter_raw = layer.scattered_nnz * dk * b
        if layer.streaming_fallback:
            spmm_scatter = min(spmm_scatter_raw, tensor_bytes)
        else:
            spmm_scatter = spmm_scatter_raw * self._scatter_amplification
        spmm_dram = 2 * tensor_bytes + spmm_scatter
        dram_bytes += spmm_dram
        total_nnz = layer.total_nnz
        spmm_products = total_nnz
        spmm_compute = output_stationary_spmm_cycles(
            spmm_products, dk, cfg.num_mac_lines, cfg.macs_per_line
        )
        spmm_phase = max(spmm_compute, spmm_dram / bpc)
        latency.compute += spmm_compute
        latency.data_movement += spmm_phase - spmm_compute
        mac_count += layer.spmm_macs

        # ---------------- softmax --------------------------------------
        # Dedicated per-engine softmax units consume completed attention-map
        # columns while SDDMM/SpMM continue (Fig. 12), so only the portion
        # exceeding the MAC-side busy time lands on the critical path.
        sm_cycles = softmax_cycles(total_nnz, n * H, lanes=cfg.softmax_lanes)
        latency.compute += max(0, sm_cycles - (phase + spmm_phase))
        energy.other += total_nnz * cfg.energy.softmax_op_pj

        self._charge_energy(energy, mac_count, dram_bytes, latency.total)
        return SimReport(
            platform=self.name,
            workload=f"attention(n={n}, H={H}, dk={dk})",
            latency=latency,
            energy=energy,
            frequency_hz=cfg.frequency_hz,
            details={
                "stream_bytes": stream_bytes,
                "scatter_bytes": scatter_bytes,
                "sddmm_compute": sddmm_compute,
                "sddmm_memory": memory_cycles,
                "spmm_compute": spmm_compute,
                "mac_count": mac_count,
                "dram_bytes": dram_bytes,
            },
        )

    def _s_stationary_pack_efficiency(self, layer):
        """Packing efficiency of a rigid spatial array on this mask (the
        fraction of PE slots holding real non-zeros after row packing)."""
        width = self.config.macs_per_line * 2
        stats = layer.head_stats()
        per_row = (stats.denser_nnz + stats.sparser_nnz) / stats.tokens
        slot_rows = np.ceil(np.maximum(per_row, 1) / width) * width
        slots = int((slot_rows * stats.tokens).sum())
        nnz = layer.total_nnz
        return min(1.0, max(nnz / slots, 0.05)) if slots else 1.0

    # ------------------------------------------------------------------
    # Dense layers (QKV generation, projection, MLP) — §V-B.3
    # ------------------------------------------------------------------
    def simulate_gemm(self, gemm: GemmWorkload, compress_output=False) -> SimReport:
        cfg = self.config
        b = cfg.bytes_per_element
        compute = dense_gemm_cycles(gemm.m, gemm.k, gemm.n, cfg.total_macs)

        out_ratio = 1.0
        encode_macs = 0
        if compress_output and self.use_ae:
            # QKV generation: Q and K (2/3 of the output) are encoded before
            # the off-chip writeback; the encoder engine is pipelined behind
            # the GEMM (§V-B.2) so only its energy is charged.
            out_ratio = (2 * self.ae_compression + 1) / 3
            encode_macs = int(gemm.m * gemm.n * (2 / 3) * self.ae_compression)

        traffic = (gemm.weight_bytes(b) + gemm.m * gemm.k * b
                   + gemm.m * gemm.n * b * out_ratio)
        phase = max(compute, traffic / cfg.bytes_per_cycle)

        latency = LatencyBreakdown(
            compute=compute, data_movement=phase - compute
        )
        energy = EnergyBreakdown()
        self._charge_energy(energy, gemm.macs + encode_macs, traffic, latency.total)
        return SimReport(
            platform=self.name,
            workload=gemm.name,
            latency=latency,
            energy=energy,
            frequency_hz=cfg.frequency_hz,
            details={"dram_bytes": traffic, "mac_count": gemm.macs + encode_macs},
        )

    # ------------------------------------------------------------------
    # Whole models (repro.sim surface)
    # ------------------------------------------------------------------
    def simulate_attention(self, model: ModelWorkload) -> SimReport:
        """Core attention workload only (paper Fig. 15a / Fig. 19)."""
        layers = model.attention_layers
        if not layers:
            raise ValueError(
                f"{self.name}: model {model.name!r} has no attention layers"
            )
        latency, energy = self._attention_phase_arrays(layers)
        return SimReport(
            platform=self.name,
            workload=f"{model.name}:attention",
            latency=latency,
            energy=energy,
            frequency_hz=self.config.frequency_hz,
            details={"layers": len(layers)},
        )

    def simulate_model(self, model: ModelWorkload) -> SimReport:
        """End-to-end simulation (attention + all dense layers, Fig. 15b)."""
        report = self.simulate_attention(model)
        latency, energy = self._gemm_phase_arrays(
            model.linear_layers, report.latency, report.energy
        )
        return SimReport(
            platform=self.name,
            workload=f"{model.name}:end2end",
            latency=latency,
            energy=energy,
            frequency_hz=self.config.frequency_hz,
            details={
                "attention_layers": len(model.attention_layers),
                "linear_layers": len(model.linear_layers),
            },
        )

    # ------------------------------------------------------------------
    # Batched array geometry
    # ------------------------------------------------------------------
    #: Design-point knobs :meth:`simulate_attention_grid` accepts as
    #: per-point columns; anything else comes from this accelerator.
    _GRID_COLUMNS = ("num_mac_lines", "dram_bandwidth_bytes_per_s",
                     "act_buffer_bytes", "use_ae", "ae_compression",
                     "q_forwarding_hit_rate")

    def _resolve_grid_columns(self, columns):
        """Normalise per-point column arrays for the grid walk.

        ``columns`` maps a subset of :data:`_GRID_COLUMNS` to length-``P``
        arrays (already converted the way the design point would be built:
        ints for MAC lines and buffer bytes, bytes/s for bandwidth);
        missing knobs broadcast this accelerator's own value.  An empty
        dict is the degenerate ``P = 1`` walk of this design point itself.
        Every knob, broadcast defaults included, goes through
        :func:`~repro.hw.params.check_domain` before any cast, so a grid
        holding one out-of-domain value raises for the whole walk (the
        DSE grid check rejects such values before any evaluator runs).
        """
        unknown = set(columns) - set(self._GRID_COLUMNS)
        if unknown:
            raise ValueError(
                f"unknown design-point column(s) {sorted(unknown)}; "
                f"choose from {list(self._GRID_COLUMNS)}"
            )
        lengths = {len(np.atleast_1d(v)) for v in columns.values()}
        if len(lengths) > 1:
            raise ValueError(
                f"design-point columns disagree on length: {sorted(lengths)}"
            )
        points = lengths.pop() if lengths else 1
        cfg = self.config
        knobs = {
            "num_mac_lines": cfg.num_mac_lines,
            "dram_bandwidth_bytes_per_s": cfg.dram_bandwidth_bytes_per_s,
            "act_buffer_bytes": cfg.act_buffer_bytes,
            "use_ae": self.use_ae,
            "ae_compression": self.ae_compression,
            "q_forwarding_hit_rate": self.q_forwarding_hit_rate,
        }
        knobs.update(columns)
        check_domain(**knobs)

        def column(name, dtype):
            if name in columns:
                return np.asarray(columns[name], dtype=dtype)
            return np.full(points, knobs[name], dtype=dtype)

        lines = column("num_mac_lines", np.int64)
        bandwidth = column("dram_bandwidth_bytes_per_s", np.float64)
        act_buffer = column("act_buffer_bytes", np.int64)
        use_ae = column("use_ae", bool)
        ae = column("ae_compression", np.float64)
        fwd = column("q_forwarding_hit_rate", np.float64)
        # Column vectors broadcast against the (layers,) workload arrays;
        # every derived value mirrors the scalar config path op for op
        # (``bytes_per_cycle`` is the same division, ``ratio``/``fwd``
        # the same conditional selection).
        return {
            "points": points,
            "lines": lines[:, None],
            "bpc": bandwidth[:, None] / cfg.frequency_hz,
            "act_buffer": act_buffer[:, None],
            "use_ae": use_ae[:, None],
            "ratio": np.where(use_ae, ae, 1.0)[:, None],
            "fwd": (fwd if self.two_pronged else
                    np.zeros(points))[:, None],
        }

    def simulate_attention_grid(self, model, columns):
        """Score ``P`` design points on ``model`` as one (P × layers) walk.

        The array-geometry path of :meth:`simulate_attention` broadcast
        over a leading *design-point* axis: swept hardware knobs
        arrive as per-point columns (see :meth:`_resolve_grid_columns`)
        instead of per-point :class:`~repro.hw.params.HardwareConfig`
        clones, and the whole grid chunk is evaluated by the same
        elementwise phase algebra.  Returns ``(seconds, energy_joules)``
        float64 arrays of length ``P`` whose elements are **bit-for-bit**
        the ``report.seconds`` / ``report.energy_joules`` of ``P``
        separate :meth:`simulate_attention` calls at those design points
        (same IEEE ops on the same values, same left-to-right per-layer
        fold) — the guarantee the batched DSE engine is built on.
        """
        layers = model.attention_layers
        if not layers:
            raise ValueError(
                f"{self.name}: model {model.name!r} has no attention layers"
            )
        cols = self._resolve_grid_columns(columns)
        folded = self._attention_phase_grid(layers, cols)
        cycles = (folded["compute"] + folded["preprocess"]) \
            + folded["data_movement"]
        seconds = cycles / self.config.frequency_hz
        energy_pj = (folded["mac"] + folded["sram"] + folded["dram"]
                     + folded["other"] + folded["static"])
        return seconds, energy_pj * 1e-12

    def _attention_phase_arrays(self, layers):
        """Every attention layer's phase algebra as elementwise arrays.

        The ``P = 1`` case of :meth:`_attention_phase_grid` at this
        accelerator's own design point.  Each expression mirrors
        :meth:`simulate_attention_layer` operation for operation (same
        IEEE ops on the same values), and the per-layer arrays fold
        left-to-right like ``SimReport.merged`` — so the totals are
        bit-for-bit those of the per-layer loop.
        """
        folded = self._attention_phase_grid(
            layers, self._resolve_grid_columns({})
        )
        latency = LatencyBreakdown(
            compute=float(folded["compute"][0]),
            preprocess=float(folded["preprocess"][0]),
            data_movement=float(folded["data_movement"][0]),
        )
        energy = EnergyBreakdown(
            mac=float(folded["mac"][0]),
            sram=float(folded["sram"][0]),
            dram=float(folded["dram"][0]),
            other=float(folded["other"][0]),
            static=float(folded["static"][0]),
        )
        return latency, energy

    def _attention_phase_grid(self, layers, cols):
        """The (points × layers) attention walk behind every attention path.

        Workload statistics are (layers,) rows, design-point knobs are
        (points, 1) columns, and every phase expression broadcasts to a
        (points × layers) array whose elements are exactly the scalar
        path's values; per-layer folds run left-to-right per point
        (:func:`_fold_rows`).  Returns the folded latency categories and
        energy components, each a (points,) array.
        """
        cfg = self.config
        b = cfg.bytes_per_element
        bpc = cols["bpc"]
        mpl = cfg.macs_per_line
        ratio = cols["ratio"]
        compute_lines = cols["lines"]
        points = cols["points"]

        n = np.array([l.num_tokens for l in layers], dtype=np.int64)
        H = np.array([l.num_heads for l in layers], dtype=np.int64)
        dk = np.array([l.head_dim for l in layers], dtype=np.int64)
        d = H * dk  # embed_dim
        idx_bytes = np.array([l.index_bytes() for l in layers], dtype=np.int64)
        scattered = np.array([l.scattered_nnz for l in layers], dtype=np.int64)
        total_nnz = np.array([l.total_nnz for l in layers], dtype=np.int64)
        spmm_macs = np.array([l.spmm_macs for l in layers], dtype=np.int64)
        fallback = np.array([l.streaming_fallback for l in layers], dtype=bool)
        denser_products = np.array(
            [int((s.global_tokens * s.tokens).sum())
             for s in (l.head_stats() for l in layers)], dtype=np.int64,
        )
        sparser_products = np.array(
            [int(l.head_stats().sparser_nnz.sum()) for l in layers],
            dtype=np.int64,
        )

        # ---------------- preprocess ------------------------------------
        preprocess = idx_bytes / bpc

        # ---------------- SDDMM phase -----------------------------------
        tensor_bytes = n * d * b
        k_window_bytes = cols["act_buffer"] / 2
        k_tiles = np.maximum(1, np.ceil(tensor_bytes * ratio / k_window_bytes))
        stream_bytes = tensor_bytes * ratio * (1 + k_tiles)
        fwd = cols["fwd"]
        scatter_raw = scattered * dk * b * ratio * (1.0 - fwd)
        scatter_bytes = np.where(
            fallback,
            np.minimum(scatter_raw, tensor_bytes * ratio),
            scatter_raw * self._scatter_amplification,
        )
        sddmm_dram = stream_bytes + scatter_bytes
        decode_macs = np.where(
            cols["use_ae"], np.trunc(sddmm_dram / b) * H, 0.0
        )
        memory_cycles = sddmm_dram / bpc

        denser_macs = denser_products * dk
        sparser_macs = sparser_products * dk
        cycles_per_wave = np.ceil(dk / mpl)

        if self.dataflow == "s_stationary":
            eff = np.array(
                [self._s_stationary_pack_efficiency(l) for l in layers]
            )
            effective = (compute_lines * mpl) * eff
            products = denser_products + sparser_products
            sddmm_compute = np.where(
                products > 0, np.ceil(products / effective) * dk, 0.0
            )
        elif self.two_pronged:
            d_lines, s_lines = allocate_mac_lines_batched(
                compute_lines, denser_macs, sparser_macs
            )
            denser_cycles = np.where(
                denser_products > 0,
                np.ceil(denser_products / np.maximum(d_lines, 1))
                * cycles_per_wave,
                0.0,
            )
            sparser_cycles = np.where(
                sparser_products > 0,
                np.ceil(sparser_products / np.maximum(s_lines, 1))
                * cycles_per_wave,
                0.0,
            )
            sddmm_compute = np.maximum(denser_cycles, sparser_cycles)
        else:
            cv = np.array([l.column_cv() for l in layers])
            single_util = 0.9 / (1.0 + 0.3 * cv)
            serial = (
                np.where(denser_products > 0,
                         np.ceil(denser_products / compute_lines)
                         * cycles_per_wave, 0.0)
                + np.where(sparser_products > 0,
                           np.ceil(sparser_products / compute_lines)
                           * cycles_per_wave, 0.0)
            )
            sddmm_compute = np.ceil(serial / np.maximum(single_util, 0.1))

        phase = np.maximum(sddmm_compute, memory_cycles)

        # ---------------- SpMM phase ------------------------------------
        spmm_scatter_raw = scattered * dk * b
        spmm_scatter = np.where(
            fallback,
            np.minimum(spmm_scatter_raw, tensor_bytes),
            spmm_scatter_raw * self._scatter_amplification,
        )
        spmm_dram = 2 * tensor_bytes + spmm_scatter
        spmm_compute = np.where(
            total_nnz > 0,
            np.ceil(total_nnz / compute_lines) * cycles_per_wave,
            0.0,
        )
        spmm_phase = np.maximum(spmm_compute, spmm_dram / bpc)

        # ---------------- softmax ---------------------------------------
        sm_cycles = np.ceil((total_nnz + 2 * (n * H)) / cfg.softmax_lanes)
        sm_extra = np.maximum(0.0, sm_cycles - (phase + spmm_phase))

        compute = sddmm_compute + spmm_compute + sm_extra
        data_movement = (phase - sddmm_compute) + (spmm_phase - spmm_compute)

        mac_count = denser_macs + sparser_macs + decode_macs + spmm_macs
        dram_bytes = idx_bytes + sddmm_dram + spmm_dram
        cycles = (compute + preprocess) + data_movement
        e = cfg.energy
        return {
            "compute": _fold_rows(compute, points),
            "preprocess": _fold_rows(preprocess, points),
            "data_movement": _fold_rows(data_movement, points),
            "mac": _fold_rows(mac_count * e.mac_pj, points),
            "sram": _fold_rows(
                (2 * dram_bytes + mac_count * b / 4) * e.sram_byte_pj, points
            ),
            "dram": _fold_rows(dram_bytes * e.dram_byte_pj, points),
            "other": _fold_rows(total_nnz * e.softmax_op_pj, points),
            "static": _fold_rows(cycles * e.static_pj_per_cycle, points),
        }

    def _gemm_phase_arrays(self, gemms, base_latency, base_energy):
        """The dense-layer walk as arrays, folded onto the attention totals
        exactly as the per-GEMM ``merged`` chain would."""
        cfg = self.config
        b = cfg.bytes_per_element
        if not gemms:
            return base_latency, base_energy
        m = np.array([g.m for g in gemms], dtype=np.int64)
        k = np.array([g.k for g in gemms], dtype=np.int64)
        nn = np.array([g.n for g in gemms], dtype=np.int64)
        # QKV generation encodes its Q and K outputs (simulate_gemm's
        # ``compress_output``).
        compress = np.array([g.name.endswith(".qkv") for g in gemms], dtype=bool)

        macs = m * k * nn
        compute = np.where(
            macs > 0, np.ceil(macs / (cfg.total_macs * 0.85)), 0.0
        )
        if self.use_ae:
            out_ratio = np.where(
                compress, (2 * self.ae_compression + 1) / 3, 1.0
            )
            encode_macs = np.where(
                compress, np.trunc(m * nn * (2 / 3) * self.ae_compression), 0.0
            )
        else:
            out_ratio = np.ones(len(gemms))
            encode_macs = np.zeros(len(gemms))

        traffic = k * nn * b + m * k * b + m * nn * b * out_ratio
        phase = np.maximum(compute, traffic / cfg.bytes_per_cycle)
        data_movement = phase - compute

        latency = LatencyBreakdown(
            compute=_ordered_sum(compute, base_latency.compute),
            preprocess=base_latency.preprocess,
            data_movement=_ordered_sum(data_movement, base_latency.data_movement),
        )
        total_macs = macs + encode_macs
        cycles = (compute + 0.0) + data_movement
        e = cfg.energy
        energy = EnergyBreakdown(
            mac=_ordered_sum(total_macs * e.mac_pj, base_energy.mac),
            sram=_ordered_sum(
                (2 * traffic + total_macs * b / 4) * e.sram_byte_pj,
                base_energy.sram,
            ),
            dram=_ordered_sum(traffic * e.dram_byte_pj, base_energy.dram),
            other=base_energy.other,
            static=_ordered_sum(
                cycles * e.static_pj_per_cycle, base_energy.static
            ),
        )
        return latency, energy

    # ------------------------------------------------------------------
    def _charge_energy(self, energy, macs, dram_bytes, cycles):
        e = self.config.energy
        energy.mac += macs * e.mac_pj
        energy.dram += dram_bytes * e.dram_byte_pj
        # SRAM: fills/drains mirror DRAM traffic; operand fetch is amortised
        # by MAC-line broadcast (one K vector feeds a whole line).
        sram_bytes = 2 * dram_bytes + macs * self.config.bytes_per_element / 4
        energy.sram += sram_bytes * e.sram_byte_pj
        energy.static += cycles * e.static_pj_per_cycle
