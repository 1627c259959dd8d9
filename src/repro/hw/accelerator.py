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

The model is written once, as two array walks.  The attention walk
(:meth:`ViTCoDAccelerator._attention_walk`) turns per-layer statistics
into (layers,) rows and design-point knobs into (points, 1) columns, and
runs the phase algebra elementwise; the GEMM walk
(:meth:`ViTCoDAccelerator._gemm_walk`) does the same over dense layers.
Each returns per-layer arrays, and a left-to-right fold sums them as
``SimReport.merged`` would.  Every surface is a case of the walks: the
design-point grid (:meth:`ViTCoDAccelerator.simulate_attention_grid`), the
whole model at this design point (``simulate_attention``, and
``simulate_model`` from :class:`~repro.sim.engine.ModelSimulatorBase`,
which folds the GEMM walk onto the attention totals) and one layer
(``simulate_attention_layer``).  A scalar per-layer model is the test
oracle (``tests/analytical_oracle.py``): one-layer reports, and one-GEMM
reports of the GEMM walk, equal its reports, and the walks' totals equal
the fold of its reports, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim.engine import ModelSimulatorBase
from .allocator import allocate_mac_lines_batched
from .dataflow import (
    dense_gemm_cycles,
    k_tiles,
    pack_efficiency,
    s_stationary_sddmm_cycles,
    softmax_cycles,
)
from .params import VITCOD_DEFAULT, HardwareConfig, check_domain, design_columns
from .trace import EnergyBreakdown, LatencyBreakdown, SimReport
from .workload import AttentionWorkload, ModelWorkload

__all__ = ["ViTCoDAccelerator"]

_LATENCY = ("compute", "preprocess", "data_movement")
_ENERGY = ("mac", "sram", "dram", "other", "static")
#: Per-layer values a one-layer report carries.
_LAYER_DETAILS = ("sddmm_compute", "mac_count", "dram_bytes")


def _ordered_sum(values, init):
    """Left-to-right fold of one design point's per-layer ``values`` (a
    (layers,) or (1, layers) array) starting at ``init``.

    Merging per-layer reports folds each latency/energy component left to
    right; the walks' folds reduce their per-layer arrays the same way so
    walk totals and the fold of one-layer reports agree bit for bit
    (``np.sum``'s pairwise association would not).
    """
    total = init
    for value in np.ravel(values).tolist():
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


def _fold_onto(walk, latency, energy):
    """One design point's walk folded onto ``latency`` and ``energy`` left
    to right, exactly as a chain of its per-layer (or per-GEMM) ``merged``
    reports would."""
    return (
        LatencyBreakdown(**{key: _ordered_sum(walk[key], getattr(latency, key))
                            for key in _LATENCY}),
        EnergyBreakdown(**{key: _ordered_sum(walk[key], getattr(energy, key))
                           for key in _ENERGY}),
    )


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
    # Surfaces: cases of the walks
    # ------------------------------------------------------------------
    def simulate_attention_layer(self, layer: AttentionWorkload) -> SimReport:
        """One attention layer: the walk's one-layer case, as
        ``CycleAccurateSimulator.simulate_layer`` is the cycle walk's.

        ``details`` holds the layer's SDDMM compute cycles
        (``sddmm_compute``), MACs (``mac_count``) and DRAM bytes
        (``dram_bytes``).
        """
        walk = self._attention_walk([layer], self._resolve_grid_columns({}))
        return self._report(
            f"attention(n={layer.num_tokens}, H={layer.num_heads}, "
            f"dk={layer.head_dim})",
            walk,
            {key: float(walk[key][0, 0]) for key in _LAYER_DETAILS},
        )

    def simulate_attention(self, model: ModelWorkload) -> SimReport:
        """Core attention workload only (paper Fig. 15a / Fig. 19)."""
        layers = model.attention_layers
        if not layers:
            raise ValueError(
                f"{self.name}: model {model.name!r} has no attention layers"
            )
        walk = self._attention_walk(layers, self._resolve_grid_columns({}))
        return self._report(f"{model.name}:attention", walk,
                            {"layers": len(layers)})

    def _fold_gemms(self, gemms, latency, energy):
        """The GEMM walk folded onto ``latency`` and ``energy``: the dense
        half of :meth:`~repro.sim.engine.ModelSimulatorBase.simulate_model`."""
        return _fold_onto(self._gemm_walk(gemms), latency, energy)

    def _report(self, workload, walk, details):
        """A walk at this design point, folded from zero, as one report."""
        latency, energy = _fold_onto(walk, LatencyBreakdown(),
                                     EnergyBreakdown())
        return SimReport(
            platform=self.name,
            workload=workload,
            latency=latency,
            energy=energy,
            frequency_hz=self.config.frequency_hz,
            details=details,
        )

    # ------------------------------------------------------------------
    # Batched array geometry
    # ------------------------------------------------------------------
    def _resolve_grid_columns(self, columns):
        """Per-point columns for the attention walk.

        :func:`~repro.hw.params.design_columns` over this accelerator's
        knobs (its config's MAC lines, bandwidth and buffer, its AE
        switch, ratio and Q-forwarding hit rate), then the walk's own
        (points, 1) shapes.  An empty dict is the degenerate ``P = 1``
        walk of this design point itself.
        """
        cfg = self.config
        knobs = design_columns(columns, {
            "num_mac_lines": cfg.num_mac_lines,
            "dram_bandwidth_bytes_per_s": cfg.dram_bandwidth_bytes_per_s,
            "act_buffer_bytes": cfg.act_buffer_bytes,
            "use_ae": self.use_ae,
            "ae_compression": self.ae_compression,
            "q_forwarding_hit_rate": self.q_forwarding_hit_rate,
        })
        use_ae = knobs["use_ae"]
        bandwidth = knobs["dram_bandwidth_bytes_per_s"]
        points = use_ae.size
        # Column vectors broadcast against the (layers,) workload arrays;
        # every derived value mirrors the scalar config path op for op
        # (``bytes_per_cycle`` is the same division, ``ratio``/``fwd``
        # the same conditional selection).
        return {
            "points": points,
            "lines": knobs["num_mac_lines"][:, None],
            "bpc": bandwidth[:, None] / cfg.frequency_hz,
            "act_buffer": knobs["act_buffer_bytes"][:, None],
            "use_ae": use_ae[:, None],
            "ratio": np.where(use_ae, knobs["ae_compression"], 1.0)[:, None],
            "fwd": (knobs["q_forwarding_hit_rate"] if self.two_pronged else
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
        walk = self._attention_walk(layers, cols)
        folded = {key: _fold_rows(walk[key], cols["points"])
                  for key in _LATENCY + _ENERGY}
        cycles = (folded["compute"] + folded["preprocess"]) \
            + folded["data_movement"]
        seconds = cycles / self.config.frequency_hz
        energy_pj = (folded["mac"] + folded["sram"] + folded["dram"]
                     + folded["other"] + folded["static"])
        return seconds, energy_pj * 1e-12

    # ------------------------------------------------------------------
    # The walks
    # ------------------------------------------------------------------
    def _attention_walk(self, layers, cols):
        """The (points × layers) attention walk behind every attention path.

        Workload statistics are (layers,) rows, design-point knobs are
        (points, 1) columns (:meth:`_resolve_grid_columns`), and every
        phase expression broadcasts elementwise.  Returns each layer's
        latency categories, energy components and :data:`_LAYER_DETAILS`
        as arrays over (points × layers) — a config-independent one,
        softmax energy, over (layers,) — for a fold to sum.
        """
        cfg = self.config
        b = cfg.bytes_per_element
        bpc = cols["bpc"]
        mpl = cfg.macs_per_line
        ratio = cols["ratio"]
        compute_lines = cols["lines"]

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

        # ---------------- preprocess: CSC/COO index preload -------------
        preprocess = idx_bytes / bpc

        # ---------------- SDDMM phase -----------------------------------
        # Q and K stream through once in head-sized chunks, compressed by
        # the AE ratio when the AE datapath is on.  All heads run in
        # parallel, so the K/S buffer holds a token window across every
        # head (K stays compressed on chip, which widens it) and Q
        # re-streams once per K tile.
        tensor_bytes = n * d * b  # one of Q / K / V, decoded
        tiles = k_tiles(tensor_bytes, ratio, cols["act_buffer"])
        stream_bytes = tensor_bytes * ratio * (1 + tiles)  # K once + Q/tile
        # Sparser-region non-zeros off the diagonal band trigger scattered
        # per-token Q fetches, cut by query-based forwarding.  With the
        # reordered layout the scheduler falls back to one more full
        # sequential Q stream when scattering costs more; without
        # reordering there is no streaming order to fall back to, and the
        # raw fetches stand, amplified by DRAM row misses.
        fwd = cols["fwd"]
        scatter_raw = scattered * dk * b * ratio * (1.0 - fwd)
        scatter_bytes = np.where(
            fallback,
            np.minimum(scatter_raw, tensor_bytes * ratio),
            scatter_raw * self._scatter_amplification,
        )
        sddmm_dram = stream_bytes + scatter_bytes
        # The decoder keeps up with DRAM line rate, so it costs energy and
        # MACs but never throttles the stream: each compressed element read
        # back costs H MACs to reconstruct the full head dimension.
        decode_macs = np.where(
            cols["use_ae"], np.trunc(sddmm_dram / b) * H, 0.0
        )
        memory_cycles = sddmm_dram / bpc

        denser_macs = denser_products * dk
        sparser_macs = sparser_products * dk
        cycles_per_wave = np.ceil(dk / mpl)

        if self.dataflow == "s_stationary":
            # Ablation: Sanger-style spatial mapping on the same workload,
            # packed into rows of two MAC lines' width.
            eff = np.array([pack_efficiency(l, 2 * mpl) for l in layers])
            sddmm_compute = s_stationary_sddmm_cycles(
                denser_products + sparser_products, dk, compute_lines * mpl,
                pack_efficiency=eff,
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
            # Single-engine ablation: global-token columns interleaved with
            # nearly empty sparse ones idle MAC lines while a heavy column
            # drains, so utilization falls with the coefficient of
            # variation of per-column work (§III-A); the two-pronged split
            # restores it by giving each engine a near-uniform population.
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
        # V streams in and V' writes back uncompressed (the AE covers Q/K
        # only); scattered non-zeros gather their V rows individually,
        # under the same fallback rule.
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
        # Per-engine softmax units consume finished columns while SDDMM and
        # SpMM continue (Fig. 12): only the excess over the MAC-side busy
        # time lands on the critical path.
        sm_cycles = softmax_cycles(total_nnz, n * H, lanes=cfg.softmax_lanes)
        sm_extra = np.maximum(0.0, sm_cycles - (phase + spmm_phase))

        compute = sddmm_compute + spmm_compute + sm_extra
        data_movement = (phase - sddmm_compute) + (spmm_phase - spmm_compute)

        mac_count = denser_macs + sparser_macs + decode_macs + spmm_macs
        dram_bytes = idx_bytes + sddmm_dram + spmm_dram
        cycles = (compute + preprocess) + data_movement
        e = cfg.energy
        return {
            "compute": compute,
            "preprocess": preprocess,
            "data_movement": data_movement,
            "mac": mac_count * e.mac_pj,
            "sram": (2 * dram_bytes + mac_count * b / 4) * e.sram_byte_pj,
            "dram": dram_bytes * e.dram_byte_pj,
            "other": total_nnz * e.softmax_op_pj,
            "static": cycles * e.static_pj_per_cycle,
            "sddmm_compute": sddmm_compute,
            "mac_count": mac_count,
            "dram_bytes": dram_bytes,
        }

    def _gemm_walk(self, gemms):
        """The dense-layer walk (§V-B.3): each GEMM's latency categories,
        energy components, ``mac_count`` and ``dram_bytes`` as (gemms,)
        arrays.

        Every GEMM runs on the whole reconfigured array at 85 %
        utilization.  With the AE datapath on, QKV generation (a GEMM
        named ``*.qkv``) encodes its Q and K outputs, 2/3 of the output,
        before the off-chip writeback; the encoder is pipelined behind the
        GEMM (§V-B.2), so only its energy is charged.
        """
        cfg = self.config
        b = cfg.bytes_per_element
        m = np.array([g.m for g in gemms], dtype=np.int64)
        k = np.array([g.k for g in gemms], dtype=np.int64)
        nn = np.array([g.n for g in gemms], dtype=np.int64)
        compress = np.array([g.name.endswith(".qkv") for g in gemms], dtype=bool)

        macs = m * k * nn
        compute = dense_gemm_cycles(m, k, nn, cfg.total_macs)
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
        mac_count = macs + encode_macs
        cycles = (compute + 0.0) + data_movement
        none = np.zeros(len(gemms))  # GEMMs have no preprocess or softmax
        e = cfg.energy
        return {
            "compute": compute,
            "preprocess": none,
            "data_movement": data_movement,
            "mac": mac_count * e.mac_pj,
            "sram": (2 * traffic + mac_count * b / 4) * e.sram_byte_pj,
            "dram": traffic * e.dram_byte_pj,
            "other": none,
            "static": cycles * e.static_pj_per_cycle,
            "mac_count": mac_count,
            "dram_bytes": traffic,
        }
