"""Event-driven cycle simulator of the two-pronged ViTCoD pipeline.

The analytical model (:mod:`repro.hw.accelerator`) charges phase times in
closed form; this simulator *executes* the schedule instead: every (head,
column) of the polarized mask becomes a job, jobs flow through shared
resources (one DRAM channel modelled by :class:`~repro.hw.dram.DramModel`,
two engine MAC-line groups, one softmax unit) with double-buffered K
loads, and the makespan/utilization emerge from resource contention rather
than from max() formulas.

It exists for two reasons, mirroring how the paper validates its simulator
against RTL:

* **validation** — the test suite checks that the event-driven makespan and
  the analytical phase model agree within a bounded factor and move
  together across sparsity levels;
* **schedule insight** — it reports per-resource busy time (denser engine,
  sparser engine, DRAM, softmax), exposing utilization effects the closed
  form can only assume.

It is deliberately column-granular (an event per K column, not per cycle):
fine enough to capture pipelining and contention, coarse enough to simulate
a 197-token, 12-head layer in well under a millisecond of wall time.

There is one simulation path, the grid walk of
:meth:`CycleAccurateSimulator.simulate_attention_grid`: P design points ×
L layers × each layer's jobs, scheduled as numpy max-plus scans.  The
per-column FCFS recurrences unroll into scans — the double-buffered
compute recurrence ``compute_free[i] = max(compute_free[i-1],
load_done[i]) + cycles[i]`` is
``cumsum(cycles) + maximum.accumulate(load_done - exclusive_cumsum(cycles))``
— so a whole batch of design points is a handful of array ops.  One
design point is the walk at P = 1 (empty columns):
:meth:`~CycleAccurateSimulator.simulate_attention` reads that row's
per-layer values into :class:`CycleSimResult` objects, and
:meth:`~CycleAccurateSimulator.simulate_layer` is its one-layer case.

The executable reference semantics is the per-job Python event loop in
:mod:`repro.hw.cycle_reference`, which only tests and benchmarks import.
To let them assert *exact* (bitwise) agreement, every event duration is
snapped to a ``2**-20``-cycle grid (:data:`_TIME_SCALE`): compute and
softmax durations are integer cycle counts already, and DRAM service
times are quantized at the single point where they enter the event
algebra (:meth:`CycleAccurateSimulator._grid_service`).  With all
durations on that grid and makespans far below ``2**33`` cycles, every
double-precision add/max is exact, so the walk and the loop agree
bit-for-bit regardless of association order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil
from typing import Optional, Tuple

import numpy as np

from ..perf.memo import instance_memo
from ..sim.engine import AttentionSimulatorBase, merge_results
from .allocator import allocate_mac_lines_batched
from .dram import DramModel
from .params import VITCOD_DEFAULT, HardwareConfig, check_domain
from .workload import AttentionWorkload, ModelWorkload

__all__ = ["CycleSimResult", "CycleAccurateSimulator", "merge_cycle_results"]

#: Durations are quantized to multiples of ``1 / _TIME_SCALE`` cycles so the
#: event algebra is exact in double precision (see module docstring).
_TIME_SCALE = float(1 << 20)


def _pad_rows(arrays):
    """Stack variable-length int64 job arrays into a zero-padded matrix.

    Returns ``(matrix, lengths)``; zero products mean zero-duration jobs,
    so padded slots are inert in every duration computation.
    """
    lengths = np.array([a.size for a in arrays], dtype=np.int64)
    width = int(lengths.max()) if lengths.size else 0
    matrix = np.zeros((len(arrays), width), dtype=np.int64)
    for i, a in enumerate(arrays):
        matrix[i, : a.size] = a
    return matrix, lengths


#: float64 cells one grid-walk scan array may hold: the design-point axis
#: of :meth:`CycleAccurateSimulator.simulate_attention_grid` is walked in
#: sub-batches of ``budget // cells_per_point`` points, so peak memory is
#: bounded no matter how many points one ``evaluate_batch`` chunk holds.
#: 2**20 cells (8 MiB) measured fastest on DeiT-Base grids: the in-place
#: scans then run cache-resident instead of streaming from DRAM (1<<22
#: was ~2x slower wall-clock for identical results).
_GRID_CELL_BUDGET = 1 << 20


def _width_bands(widths):
    """Group row indices into power-of-two width bands.

    Rows whose job counts share a bit length land in one band, so each
    band's matrix is padded only to its own widest row and every row
    fills more than half of it (max/min width ratio < 2 within a band)
    — no row is ever padded to the width of a far-wider band.  Polarized
    masks make the denser engine's rows ~15× narrower than the sparser
    engine's, so one matrix padded to a common width would waste most of
    its cells.  Zero-width rows are dropped (they have no events to scan).
    Returns int64 row-index arrays, one per band, narrowest band first.
    """
    bands = {}
    for i, width in enumerate(widths):
        width = int(width)
        if width <= 0:
            continue
        bands.setdefault(width.bit_length(), []).append(i)
    return [np.array(bands[bits], dtype=np.int64) for bits in sorted(bands)]


@dataclass
class CycleSimResult:
    """Outcome of one event-driven simulation (a layer or a whole model).

    Whole-model results additionally carry the per-layer breakdown in
    ``per_layer`` (one single-layer :class:`CycleSimResult` per attention
    layer, in layer order) so figure runners can plot layer-resolved
    makespans/utilizations from one run.
    """

    makespan: float
    sddmm_makespan: float
    spmm_makespan: float
    denser_busy: float
    sparser_busy: float
    dram_busy: float
    softmax_busy: float
    jobs_executed: int
    per_layer: Tuple["CycleSimResult", ...] = ()

    @property
    def denser_utilization(self):
        return self.denser_busy / self.makespan if self.makespan else 0.0

    @property
    def sparser_utilization(self):
        return self.sparser_busy / self.makespan if self.makespan else 0.0

    @property
    def dram_utilization(self):
        return self.dram_busy / self.makespan if self.makespan else 0.0

    def _layers(self):
        """This result as a tuple of single-layer results."""
        return self.per_layer if self.per_layer else (self,)

    def merged(self, other: "CycleSimResult") -> "CycleSimResult":
        """Concatenate two sequential results (mirrors ``SimReport.merged``):
        totals add, ``per_layer`` chains both sides' layer breakdowns."""
        return CycleSimResult(
            makespan=self.makespan + other.makespan,
            sddmm_makespan=self.sddmm_makespan + other.sddmm_makespan,
            spmm_makespan=self.spmm_makespan + other.spmm_makespan,
            denser_busy=self.denser_busy + other.denser_busy,
            sparser_busy=self.sparser_busy + other.sparser_busy,
            dram_busy=self.dram_busy + other.dram_busy,
            softmax_busy=self.softmax_busy + other.softmax_busy,
            jobs_executed=self.jobs_executed + other.jobs_executed,
            per_layer=self._layers() + other._layers(),
        )


#: The float fields of :class:`CycleSimResult` the grid walk computes per
#: (point, layer), in field order.
_WALK_FIELDS = ("makespan", "sddmm_makespan", "spmm_makespan", "denser_busy",
                "sparser_busy", "dram_busy", "softmax_busy")


def merge_cycle_results(results) -> CycleSimResult:
    """Fold per-layer results into one whole-model :class:`CycleSimResult`.

    Raises :class:`ValueError` on an empty sequence; the merged result
    always exposes ``per_layer`` (even for a single layer).
    """
    results = list(results)
    total = merge_results(results, "no attention layers to simulate")
    if len(results) == 1:
        total = replace(total, per_layer=(results[0],))
    return total


def _build_grid_geometry(layers, macs_per_line, lanes, b):
    """Config-independent geometry of the grid walk.

    A pure function of the layers and the three configuration fields it
    reads (MAC-line width, softmax lanes, bytes per element), so it can
    be memoized on the workload under exactly that key
    (:meth:`CycleAccurateSimulator._grid_geometry`).  Job widths are a
    property of the workload alone — design points change event
    *durations*, never the job list — so the width-band row grouping, the
    padded product matrices, their padding masks, and the softmax
    durations (the lane count is never swept) are shared by every design
    point.  The per-layer job products themselves come memoized off each
    layer (``denser_job_products`` / ``sparser_job_products``).
    """
    L = len(layers)
    if not L:
        raise ValueError("no attention layers to simulate")

    per_wave = np.empty(L, dtype=np.int64)
    n_d = np.empty(L, dtype=np.int64)
    n_s = np.empty(L, dtype=np.int64)
    denser_macs = np.empty(L, dtype=np.int64)
    sparser_macs = np.empty(L, dtype=np.int64)
    tensor_bytes = np.empty(L, dtype=np.int64)
    k_bytes_full = np.empty(L, dtype=np.int64)
    total_nnz = np.empty(L, dtype=np.int64)
    products, softmax_cols = [], []
    for i, layer in enumerate(layers):
        head_dim = layer.head_dim
        d_prod = layer.denser_job_products()
        s_prod = layer.sparser_job_products()
        products.append((d_prod, s_prod))
        per_wave[i] = ceil(head_dim / macs_per_line)
        n_d[i], n_s[i] = d_prod.size, s_prod.size
        denser_macs[i] = int(d_prod.sum()) * head_dim
        sparser_macs[i] = int(s_prod.sum()) * head_dim
        tensor_bytes[i] = layer.num_tokens * layer.embed_dim * b
        k_bytes_full[i] = head_dim * b
        total_nnz[i] = layer.total_nnz
        sm_d = (-(-d_prod // lanes)).astype(np.float64)
        sm_s = (-(-s_prod // lanes)).astype(np.float64)
        softmax_cols.append((sm_d, sm_s))

    # A layer's softmax unit is ONE FCFS queue serving all denser compute
    # completions before the sparser ones; only its FINAL state is ever
    # consumed (its busy time is config-independent).  The final of a
    # max-plus queue is ``S_W + max(0, max_j(r_j - S_excl_j))`` with
    # ``S = cumsum(durations)`` — a plain max reduce, no scan — so per
    # layer we keep the total ``S_W`` and per compute row the
    # concatenated-queue exclusive cumsums (denser rows: ``S_excl``;
    # sparser rows: the full denser sum plus their own ``S_excl``),
    # ``+inf`` in padded slots so padding can never win the max.  All
    # values live on the 2**-20 grid, so regrouping the concatenated
    # queue this way is exact.
    sm_total = np.empty(L)
    sm_denser_total = np.empty(L)
    for i, (sm_d, sm_s) in enumerate(softmax_cols):
        sm_denser_total[i] = sm_d.sum()
        sm_total[i] = sm_denser_total[i] + sm_s.sum()

    # Compute rows: 2L independent max-plus resets (denser engine of
    # layer i is row i, sparser engine is row L + i), width-banded so no
    # row pads to a far-wider engine's job count.
    compute_bands = []
    for rows in _width_bands(np.concatenate([n_d, n_s])):
        is_d = rows < L
        layer_idx = np.where(is_d, rows, rows - L)
        pad, lengths = _pad_rows([
            products[r][0] if r < L else products[r - L][1]
            for r in rows.tolist()
        ])
        sm_off = np.full(pad.shape, np.inf)
        for j, r in enumerate(rows.tolist()):
            sm = softmax_cols[r][0] if r < L else softmax_cols[r - L][1]
            excl = np.cumsum(sm) - sm
            if r >= L:
                excl = sm_denser_total[r - L] + excl
            sm_off[j, : sm.size] = excl
        compute_bands.append({
            "layer": layer_idx,
            "is_d": is_d,
            "pad": pad,
            "lengths": lengths,
            "mask": np.arange(pad.shape[1])[None, :] >= lengths[:, None],
            "sm_off": sm_off,
        })

    return {
        "layers": L,
        "per_wave": per_wave,
        "n_d": n_d,
        "n_s": n_s,
        "denser_macs": denser_macs,
        "sparser_macs": sparser_macs,
        "tensor_bytes": tensor_bytes,
        "k_bytes_full": k_bytes_full,
        "total_nnz": total_nnz,
        "sm_total": sm_total,
        "compute_bands": compute_bands,
        "cells": sum(band["pad"].size for band in compute_bands),
        "jobs": n_d + n_s + 2,
    }


class CycleAccurateSimulator(AttentionSimulatorBase):
    """Event-driven companion to :class:`ViTCoDAccelerator`.

    Parameters
    ----------
    config:
        Hardware design point (defaults to the paper's).
    use_ae:
        Compress Q/K streams/loads by ``ae_compression``.
    dram:
        Optional :class:`DramModel` with custom burst parameters.
        Subclasses are rejected: the grid walk evaluates sequential
        service times in closed form and cannot replay per-request state
        a subclass may keep (the reference loop in
        :mod:`repro.hw.cycle_reference` accepts any model).
    """

    name = "CycleSim"

    def __init__(self, config: Optional[HardwareConfig] = None, use_ae=True,
                 ae_compression=0.5, dram: Optional[DramModel] = None):
        self.config = config or VITCOD_DEFAULT
        self.use_ae = use_ae
        check_domain(ae_compression=ae_compression)
        if dram is not None and type(dram) is not DramModel:
            raise ValueError(
                "CycleAccurateSimulator requires a plain DramModel: a custom "
                "subclass may carry per-request state the grid walk cannot "
                "replay (repro.hw.cycle_reference simulates any model)"
            )
        self.ae_compression = ae_compression
        self.dram = dram or DramModel(
            bytes_per_cycle=self.config.bytes_per_cycle
        )

    def simulate_layer(self, layer: AttentionWorkload) -> CycleSimResult:
        """One attention layer: the single-layer case of
        :meth:`simulate_attention`."""
        return self.simulate_attention([layer]).per_layer[0]

    # Conform to the :mod:`repro.sim` per-layer naming.
    simulate_attention_layer = simulate_layer

    def simulate_attention(self, model) -> CycleSimResult:
        """Simulate a whole model's attention stack at this design point.

        Accepts a :class:`~repro.hw.workload.ModelWorkload` or any sequence
        of :class:`~repro.hw.workload.AttentionWorkload` layers.  This is
        the grid walk at P = 1: its single row becomes the ``per_layer``
        tuple of single-layer results, and the totals are their field
        sums.  A ``ModelWorkload`` keeps the walk's geometry memoized.
        """
        per_layer, jobs = self._walk(model, {})
        rows = zip(*(per_layer[name][0].tolist() for name in _WALK_FIELDS),
                   jobs.tolist())
        return merge_cycle_results(CycleSimResult(*row) for row in rows)

    # ------------------------------------------------------------------
    # The grid walk: a (points × rows × jobs) max-plus scan
    # ------------------------------------------------------------------
    #: Design-point knobs :meth:`simulate_attention_grid` accepts as
    #: per-point columns; anything else comes from this simulator.
    _GRID_COLUMNS = ("num_mac_lines", "dram_bandwidth_bytes_per_s",
                     "act_buffer_bytes", "use_ae", "ae_compression")

    def _resolve_grid_columns(self, columns):
        """Normalise per-point column arrays for the grid walk.

        Mirrors ``ViTCoDAccelerator._resolve_grid_columns``: ``columns``
        maps a subset of :data:`_GRID_COLUMNS` to length-``P`` arrays
        (already converted the way the design point would be built: ints
        for MAC lines and buffer bytes, bytes/s for bandwidth); missing
        knobs broadcast this simulator's own value.  Every knob goes
        through :func:`~repro.hw.params.check_domain` before any cast, so
        a chunk holding one out-of-domain value raises for the whole walk
        (the DSE grid check rejects such values before any evaluator
        runs).  A bandwidth column overrides the DRAM channel rate
        exactly as a per-point config clone would (``bandwidth /
        frequency``); without one the channel keeps this simulator's own
        ``dram.bytes_per_cycle``.
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
            # The channel this simulator's DRAM model actually runs.
            "dram_bandwidth_bytes_per_s":
                self.dram.bytes_per_cycle * cfg.frequency_hz,
            "act_buffer_bytes": cfg.act_buffer_bytes,
            "use_ae": self.use_ae,
            "ae_compression": self.ae_compression,
        }
        knobs.update(columns)
        check_domain(**knobs)

        def column(name, dtype):
            if name in columns:
                return np.asarray(columns[name], dtype=dtype)
            return np.full(points, knobs[name], dtype=dtype)

        lines = column("num_mac_lines", np.int64)
        act_buffer = column("act_buffer_bytes", np.int64)
        use_ae = column("use_ae", bool)
        ae = column("ae_compression", np.float64)
        if "dram_bandwidth_bytes_per_s" in columns:
            bpc = column("dram_bandwidth_bytes_per_s", np.float64) \
                / cfg.frequency_hz
        else:
            bpc = np.full(points, self.dram.bytes_per_cycle)
        return {
            "points": points,
            "lines": lines,
            "bpc": bpc,
            "act_buffer": act_buffer,
            "ratio": np.where(use_ae, ae, 1.0),
        }

    def _grid_service(self, nbytes, bpc):
        """Grid-quantized DRAM service times of sequential requests.

        The same op sequence as :meth:`DramModel.service_cycles` for a
        sequential request followed by the reference loop's quantization
        to the :data:`_TIME_SCALE` grid — burst-aligned
        bytes over the channel rate, snapped to the event grid, zero
        bytes costing zero — elementwise over a (points × layers)
        broadcast with per-point ``bpc`` channel rates.
        """
        burst = self.dram.burst_bytes
        bursts = np.ceil(nbytes / burst)
        cycles = np.round(bursts * burst / bpc * _TIME_SCALE) / _TIME_SCALE
        return np.where(nbytes == 0, 0.0, cycles)

    def _grid_geometry(self, model):
        """The walk's config-independent geometry (:func:`_build_grid_geometry`).

        Memoized on a :class:`~repro.hw.workload.ModelWorkload`, keyed by
        the configuration fields the builder reads, so repeated points and
        batches on a cached workload skip the build (the table is stripped
        from pickles with the workload's other caches).  A bare layer
        sequence is built fresh on every call.
        """
        cfg = self.config
        key = (cfg.macs_per_line, cfg.softmax_lanes, cfg.bytes_per_element)
        if isinstance(model, ModelWorkload):
            return instance_memo(
                model, "_cycle_geometry", key,
                lambda: _build_grid_geometry(model.attention_layers, *key),
            )
        return _build_grid_geometry(list(model), *key)

    def simulate_attention_grid(self, model, columns):
        """Simulate ``P`` design points' whole attention stacks at once.

        Swept hardware knobs arrive as per-point columns (see
        :meth:`_resolve_grid_columns`) instead of ``P`` simulator
        instances, and every (point, layer, job) event is scheduled by
        max-plus scans broadcast over a leading design-point axis —
        mirroring
        :meth:`~repro.hw.accelerator.ViTCoDAccelerator.simulate_attention_grid`
        one abstraction level down, at event granularity.

        Returns a dict of length-``P`` float64 arrays — ``makespan``,
        ``sddmm_makespan``, ``spmm_makespan``, ``denser_busy``,
        ``sparser_busy``, ``dram_busy``, ``softmax_busy`` — plus the
        config-independent scalar ``jobs_executed``: the sums over layers
        of the walk's (points × layers) arrays.  Element ``i`` of every
        array is **bit-for-bit** the reference event loop's total at
        design point ``i``: all event durations live on the
        ``2**-20``-cycle grid, so every sum and max here is exact and
        association-free, and every non-grid expression (byte counts, tile
        counts, service times) repeats the loop's IEEE ops operand for
        operand.
        """
        per_layer, jobs = self._walk(model, columns)
        totals = {name: values.sum(axis=1) for name, values in per_layer.items()}
        totals["jobs_executed"] = int(jobs.sum())
        return totals

    def _walk(self, model, columns):
        """Run the grid walk; returns ``(per_layer, jobs)``.

        ``per_layer`` maps each :data:`_WALK_FIELDS` name to a
        (points × layers) array, ``jobs`` holds each layer's event count.

        Rows are grouped into width-band sub-batches
        (:func:`_width_bands`) so neither engine's rows pad to the
        other's width.  The design-point axis is walked grouped by the
        (MAC lines, bytes/cycle, AE ratio) triple — the scan tables
        those columns determine are shared across each group
        (:meth:`_grid_group_tables`) — in sub-batches sized to
        :data:`_GRID_CELL_BUDGET` cells so peak memory stays bounded
        regardless of batch size.
        """
        cols = self._resolve_grid_columns(columns)
        geometry = self._grid_geometry(model)
        points = cols["points"]
        per_layer = {
            name: np.empty((points, geometry["layers"]))
            for name in _WALK_FIELDS
        }
        per_layer["softmax_busy"][:] = geometry["sm_total"]

        # Engine MAC-line split per (point, layer); the batched allocator
        # is elementwise-exact against the scalar one, floored at 1 as
        # the schedulers require.  Lines below the allocator's minimum
        # raise here for the whole batch, before anything is walked.
        d_lines, s_lines = allocate_mac_lines_batched(
            cols["lines"][:, None], geometry["denser_macs"],
            geometry["sparser_macs"]
        )
        alloc = {
            "d_lines": np.maximum(d_lines, 1),
            "s_lines": np.maximum(s_lines, 1),
        }

        # Points sharing a (MAC lines, bytes/cycle, AE ratio) triple
        # share their entire scan geometry -- durations, cumsums, and
        # the running max of the arithmetic request ladder -- so the
        # point axis is walked one such group at a time: the heavy
        # tables collapse from the point axis onto the handful of
        # distinct column triples (_grid_group_tables), and the
        # full-size per-point arrays only ever see elementwise SIMD
        # passes (_grid_walk_group).  Results are scattered straight back
        # through the original indices, so the ordering is unobservable.
        order = np.lexsort(
            (cols["act_buffer"], cols["ratio"], cols["bpc"], cols["lines"])
        )
        key = np.stack([cols["lines"][order], cols["bpc"][order],
                        cols["ratio"][order]])
        cuts = np.flatnonzero(np.any(key[:, 1:] != key[:, :-1], axis=0)) + 1
        starts = np.concatenate(([0], cuts))
        stops = np.concatenate((cuts, [points]))
        step = max(1, _GRID_CELL_BUDGET // max(geometry["cells"], 1))
        line_cache = {}
        for ga, gb in zip(starts.tolist(), stops.tolist()):
            shared = self._grid_group_tables(
                geometry, cols, alloc, order[ga], line_cache
            )
            for start in range(ga, gb, step):
                idx = order[start:min(start + step, gb)]
                self._grid_walk_group(geometry, cols, shared, idx, per_layer)
        return per_layer, geometry["jobs"]

    def _grid_group_tables(self, geometry, cols, alloc, rep, line_cache):
        """Scan tables shared by one (MAC lines, bytes/cycle, AE) group.

        ``rep`` indexes any design point of the group (all points of a
        group agree on every column the tables read).  Compute durations
        depend only on the MAC-line column, so the duration tables --
        per band: the inclusive cumsum ``total``, its exclusive form
        ``offset``, per-row ``busy`` sums, the ``last`` cumsum column,
        and the softmax slack ``addend`` -- are cached per distinct line
        count across groups.

        The per-group work is the request-ladder running max: requests
        are *arithmetic* in the job index (``base + step * j``, the
        double-buffered K-column loads), so the scanned slack splits as
        ``base + (step * j - offset_j)`` and its running max as
        ``base + M_j`` with ``M = maximum.accumulate(step * j - offset)``
        -- a pure function of this group's columns, independent of the
        point axis.  Every operand lives on the ``2**-20`` grid with
        magnitude far below ``2**32``, so both sums are exact and the
        regrouping is bitwise-neutral; padded slots keep ``-inf``
        request times through ``M``, so they can never raise a row's
        running max-plus state.
        """
        g = geometry
        lines_key = int(cols["lines"][rep])
        tables = line_cache.get(lines_key)
        if tables is None:
            tables = []
            d_row = alloc["d_lines"][rep]
            s_row = alloc["s_lines"][rep]
            for band in g["compute_bands"]:
                layer_idx = band["layer"]
                eng_lines = np.where(
                    band["is_d"], d_row[layer_idx], s_row[layer_idx]
                )
                durations = (
                    -(-band["pad"] // eng_lines[:, None])
                    * g["per_wave"][layer_idx][:, None]
                ).astype(np.float64)
                total = np.cumsum(durations, axis=-1)
                tables.append({
                    "total": total,
                    "offset": total - durations,
                    "busy": durations.sum(axis=-1),
                    "last": total[:, -1],
                    "addend": total - band["sm_off"],
                })
            line_cache[lines_key] = tables

        # The ladder step is the sparser K-column service time, computed
        # from this group's scalar bandwidth/ratio with the exact
        # per-point expressions (IEEE ops are elementwise, so scalar and
        # column evaluation agree bitwise).
        bpc = cols["bpc"][rep]
        ratio = cols["ratio"][rep]
        step_vec = self._grid_service(np.trunc(g["k_bytes_full"] * ratio), bpc)
        bands = []
        for band, t in zip(g["compute_bands"], tables):
            width = band["pad"].shape[1]
            h = step_vec[band["layer"]][:, None] * np.arange(1, width + 1)
            h -= t["offset"]
            h[band["mask"]] = -np.inf
            bands.append({**t, "M": np.maximum.accumulate(h, axis=-1)})
        return bands

    def _grid_walk_group(self, geometry, cols, shared, idx, per_layer):
        """One design-point sub-batch within a (lines, bpc, ratio) group.

        Writes rows ``idx`` of every ``per_layer`` array.  The compute
        scans are prefactored into ``shared`` (see
        :meth:`_grid_group_tables`): a row's job completions are
        ``total_j + max(base + M_j, 0)``, so the per-point work is
        broadcast adds and maxima only.

        The softmax queues need no scan at all: only each queue's
        *final* completion is consumed downstream, and unrolling the
        FCFS recurrence gives ``S_total + max(0, max_j(r_j - S_excl_j))``
        -- a plain max-reduce.  With ``r_j = total_j + max0_j`` the
        reduced term is ``max0_j + (total_j - S_excl_j)``, whose second
        summand is the precomputed ``addend``; denser requests precede
        sparser ones exactly as in the event loop (the sparser rows'
        ``S_excl`` starts past the denser jobs' total softmax time), so
        the concatenated queue equals the loop's single FCFS unit.
        Padded slots carry ``addend = -inf`` and layers without a denser
        (or sparser) row keep that side's running max at ``-inf``, which
        is the loop's empty-engine case.
        """
        g = geometry
        L = g["layers"]
        p = idx.size
        bpc = cols["bpc"][idx][:, None]
        act_buffer = cols["act_buffer"][idx][:, None]
        ratio = cols["ratio"][idx][:, None]
        lines = cols["lines"][idx][:, None]

        # Byte/tile geometry and quantized DRAM service times: the
        # reference loop's expressions with ratio/buffer/bandwidth as
        # (points, 1) columns.
        k_col_bytes = np.trunc(g["k_bytes_full"] * ratio)
        k_tiles = np.maximum(
            1.0, np.ceil(g["tensor_bytes"] * ratio / (act_buffer / 2))
        )
        q_stream = np.trunc(g["tensor_bytes"] * ratio * k_tiles)
        q_service = self._grid_service(q_stream, bpc)
        s_col = self._grid_service(k_col_bytes, bpc)
        v_service = self._grid_service(2 * g["tensor_bytes"], bpc)

        spmm_compute = np.ceil(g["total_nnz"] / lines) * g["per_wave"]

        t_denser = np.zeros((p, L))
        t_sparser = np.zeros((p, L))
        denser_busy = np.zeros((p, L))
        sparser_busy = np.zeros((p, L))
        md = np.full((p, L), -np.inf)
        ms = np.full((p, L), -np.inf)
        for band, t in zip(g["compute_bands"], shared):
            layer_idx = band["layer"]
            is_d = band["is_d"]
            # DRAM channel per layer: q-stream, denser K loads, sparser
            # K loads.
            base = np.where(
                is_d,
                q_service[:, layer_idx],
                q_service[:, layer_idx]
                + s_col[:, layer_idx] * g["n_d"][layer_idx],
            )
            buf = base[:, :, None] + t["M"]
            np.maximum(buf, 0.0, out=buf)
            finish = buf[:, :, -1] + t["last"]
            d_rows = np.flatnonzero(is_d)
            s_rows = np.flatnonzero(~is_d)
            t_denser[:, layer_idx[d_rows]] = finish[:, d_rows]
            t_sparser[:, layer_idx[s_rows]] = finish[:, s_rows]
            denser_busy[:, layer_idx[d_rows]] = t["busy"][d_rows]
            sparser_busy[:, layer_idx[s_rows]] = t["busy"][s_rows]
            buf += t["addend"]
            band_max = buf.max(axis=-1)
            md[:, layer_idx[d_rows]] = band_max[:, d_rows]
            ms[:, layer_idx[s_rows]] = band_max[:, s_rows]
        sm_free = g["sm_total"] + np.maximum(np.maximum(md, ms), 0.0)

        # SpMM phase: V streams once the channel and the SDDMM phase are
        # both free; the engines' lines are reunited for the SpMM.
        sddmm_done = np.maximum(np.maximum(t_denser, t_sparser), sm_free)
        dram_free = q_service + s_col * (g["n_d"] + g["n_s"])
        v_done = np.maximum(sddmm_done, dram_free) + v_service
        spmm_done = np.maximum(sddmm_done + spmm_compute, v_done)

        per_layer["makespan"][idx] = spmm_done
        per_layer["sddmm_makespan"][idx] = sddmm_done
        per_layer["spmm_makespan"][idx] = spmm_done - sddmm_done
        per_layer["denser_busy"][idx] = denser_busy
        per_layer["sparser_busy"][idx] = sparser_busy
        per_layer["dram_busy"][idx] = dram_free + v_service
