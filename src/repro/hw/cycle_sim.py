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
L layers, each layer one row per engine.  A row's FCFS recurrences fold
in closed form: the double-buffered compute recurrence ``compute_free[i]
= max(compute_free[i-1], load_done[i]) + cycles[i]`` is ``total[i] +
max(0, max_{k<=i}(load_done[k] - offset[k]))`` with ``total =
cumsum(cycles)`` and ``offset = total - cycles``, and the K-column loads
form an arithmetic ladder ``load_done[k] = base + s * (k + 1)`` (``base``
the row's DRAM start, ``s`` the layer's K-column service time).  The
identities ``max(x, 0) + a = max(x + a, a)`` and ``max_j(base + X[j]) =
base + max_j X[j]`` then give

* the row's finish, ``max(base + E(s), 0) + total[n-1]``, with
  ``E(s) = max_j(s * (j + 1) - offset[j])``;
* its softmax term, ``max(base + F(s), max_j addend[j])``, with
  ``F(s) = max_j(s * (j + 1) + C[j])`` and ``C[j] = max_{k>=j} addend[k]
  - offset[j]``, where ``addend = total - sm_off`` is each job's slack
  against the layer's one FCFS softmax queue, whose final completion is
  all that is consumed.

``E`` and ``F`` are upper envelopes of lines in ``s`` with slopes
``j + 1``; their intercepts (``-offset`` and ``C``, ``-inf`` in padded job
slots) depend on the MAC-line count alone, so the walk builds them once
per distinct count in a chunk, and bandwidth and AE ratio only move ``s``
and ``base``.  Per (count, row), the line attaining the max at the
smallest ``s`` among the count's points is tested at the largest: if it
attains the max there too, it is the envelope on the whole range (a
convex function lies below its chord), and each point's ``E`` or ``F``
is one multiply-add.  A row failing the test (a tie, or a range
straddling the compute/DRAM-bound crossover) is evaluated directly, as a
max over its jobs per point.  A design point thus costs O(rows), and each
distinct MAC-line count O(jobs) once.  One design point is the walk at
P = 1 (empty columns): :meth:`~CycleAccurateSimulator.simulate_attention`
reads that row's per-layer values into :class:`CycleSimResult` objects,
and :meth:`~CycleAccurateSimulator.simulate_layer` is its one-layer case.

The executable reference semantics is the per-job Python event loop in
``tests/cycle_reference.py``, an oracle outside the package that only
tests, benchmarks and CI import.
To let them assert *exact* (bitwise) agreement, every event duration is
snapped to a ``2**-20``-cycle grid (:data:`_TIME_SCALE`): compute and
softmax durations are integer cycle counts already, and DRAM service
times are quantized at the single point where they enter the event
algebra (:meth:`CycleAccurateSimulator._grid_service`).  With all
durations on that grid and makespans far below ``2**33`` cycles, every
double-precision add, max and step multiple ``s * (j + 1)`` is exact, so
the identities above hold exactly and the walk and the loop agree
bit-for-bit regardless of association order.  A compute duration is
``ceil(products / lines)`` waves; for integers below ``2**53`` the
correctly rounded float quotient has the exact ceiling, so that division
runs in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil
from typing import Optional, Tuple

import numpy as np

from ..perf.memo import instance_memo
from ..sim.engine import AttentionSimulatorBase, merge_results
from .allocator import allocate_mac_lines_batched
from .dataflow import k_tiles
from .dram import DramModel
from .params import VITCOD_DEFAULT, HardwareConfig, check_domain, design_columns
from .workload import AttentionWorkload, ModelWorkload

__all__ = ["CycleSimResult", "CycleAccurateSimulator", "merge_cycle_results"]

#: Durations are quantized to multiples of ``1 / _TIME_SCALE`` cycles so the
#: event algebra is exact in double precision (see module docstring).
_TIME_SCALE = float(1 << 20)


def _pad_rows(arrays):
    """Stack variable-length int64 job arrays into a zero-padded float64
    matrix (exact: job products are far below ``2**53``).

    Returns ``(matrix, lengths)``; zero products mean zero-duration jobs,
    so padded slots are inert in every duration computation.
    """
    lengths = np.array([a.size for a in arrays], dtype=np.int64)
    width = int(lengths.max()) if lengths.size else 0
    matrix = np.zeros((len(arrays), width))
    for i, a in enumerate(arrays):
        matrix[i, : a.size] = a
    return matrix, lengths


#: float64 cells one grid-walk temporary may hold: per-count envelope
#: tables are built for sub-batches of ``budget // (2 * band cells)``
#: MAC-line counts, and rows evaluated directly walk sub-batches of
#: ``budget // (2 * rows * jobs)`` points, so peak memory stays bounded however
#: many points or distinct counts a chunk holds (per-point work is
#: O(rows)).  2**20 cells (8 MiB) builds a 1024-point DeiT-Base chunk's
#: tables, 16 distinct counts, in one sub-batch per width band.
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


def _envelope_lines(intercepts, slopes, lo, hi):
    """Each row's line of an upper envelope over its points' steps.

    ``intercepts`` (..., jobs) and ``slopes`` (jobs,) define the lines
    ``s * slopes[j] + intercepts[..., j]``; the steps ``s`` of a row's
    points span ``[lo, hi]`` (``hi=None``: one step, ``lo``).  Returns
    ``(slope, intercept, covered)``.  With one step the line is flat at
    the envelope's value and ``covered`` is None.  Otherwise it is the
    line attaining the max at ``lo`` (the first, on ties), and ``covered``
    marks rows where it also attains the max at ``hi``: the envelope,
    convex, lies below that chord, so there the line *is* the envelope
    on the whole range (exactly, on the ``2**-20`` grid).  The caller
    evaluates the other rows directly.
    """
    at = np.multiply(lo[..., None], slopes, out=np.empty_like(intercepts))
    at += intercepts
    if hi is None:
        value = at.max(axis=-1)
        return np.zeros_like(value), value, None
    j = at.argmax(axis=-1)[..., None]
    icpt = np.take_along_axis(intercepts, j, axis=-1)[..., 0]
    np.multiply(hi[..., None], slopes, out=at)
    at += intercepts
    covered = np.take_along_axis(at, j, axis=-1)[..., 0] == at.max(axis=-1)
    return slopes[j[..., 0]], icpt, covered


def _direct_envelopes(steps, pts, rows, slopes, intercepts):
    """Both envelopes of some rows, evaluated per point as a max over jobs.

    For rows no single line covers: ``intercepts`` is (rows, 2, jobs), and
    point ``p``'s ``E`` and ``F`` are ``max_j(s * (j + 1) + c_j)`` at its
    step ``s = steps[p, row]``, in sub-batches of :data:`_GRID_CELL_BUDGET`
    cells.  Yields ``(points, rows, values)``, values (points, 2, rows).
    """
    batch = max(1, _GRID_CELL_BUDGET // intercepts.size)
    for start in range(0, pts.size, batch):
        idx = pts[start:start + batch]
        ladder = steps[idx][:, rows, None, None] * slopes + intercepts
        yield idx, rows, ladder.max(axis=-1).transpose(0, 2, 1)


@dataclass
class CycleSimResult:
    """Outcome of one event-driven simulation (a layer or a whole model).

    Whole-model results additionally carry the per-layer breakdown in
    ``per_layer`` (one single-layer :class:`CycleSimResult` per attention
    layer, in layer order), so layer-resolved makespans come from one
    run.
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
    padded product matrices, the envelope slopes and the ``pad_floor``
    that keeps padded job slots off every envelope, and the softmax
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
        width = pad.shape[1]
        compute_bands.append({
            "rows": rows,
            "layer": layer_idx,
            "is_d": is_d,
            "pad": pad,
            "lengths": lengths,
            "pad_floor": np.where(
                np.arange(width)[None, :] >= lengths[:, None], -np.inf, 0.0
            ),
            "sm_off": sm_off,
            "slopes": np.arange(1, width + 1, dtype=np.float64),
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

    The DRAM channel is a plain :class:`DramModel` at the design point's
    bandwidth: the walk evaluates its sequential service times in closed
    form (the reference loop in ``tests/cycle_reference.py`` accepts any
    model).
    """

    name = "CycleSim"

    def __init__(self, config: Optional[HardwareConfig] = None, use_ae=True,
                 ae_compression=0.5):
        self.config = config or VITCOD_DEFAULT
        self.use_ae = use_ae
        check_domain(ae_compression=ae_compression)
        self.ae_compression = ae_compression

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
        per_layer, jobs = self._walk(model, self._resolve_grid_columns({}))
        rows = zip(*(per_layer[name][0].tolist() for name in _WALK_FIELDS),
                   jobs.tolist())
        return merge_cycle_results(CycleSimResult(*row) for row in rows)

    # ------------------------------------------------------------------
    # The grid walk: per-count line envelopes, O(rows) per point
    # ------------------------------------------------------------------
    def _resolve_grid_columns(self, columns):
        """Per-point columns for the grid walk.

        :func:`~repro.hw.params.design_columns` over the knobs this
        simulator models (its config's MAC lines, bandwidth and buffer,
        its AE switch and ratio), then the walk's flat columns.  ``bpc``
        is each point's DRAM channel rate, ``bandwidth / frequency`` as a
        per-point config clone computes it; the energy charge reads it
        too (:meth:`simulate_attention_grid`).
        """
        cfg = self.config
        knobs = design_columns(columns, {
            "num_mac_lines": cfg.num_mac_lines,
            "dram_bandwidth_bytes_per_s": cfg.dram_bandwidth_bytes_per_s,
            "act_buffer_bytes": cfg.act_buffer_bytes,
            "use_ae": self.use_ae,
            "ae_compression": self.ae_compression,
        })
        return {
            "points": knobs["use_ae"].size,
            "lines": knobs["num_mac_lines"],
            "bpc": knobs["dram_bandwidth_bytes_per_s"] / cfg.frequency_hz,
            "act_buffer": knobs["act_buffer_bytes"],
            "ratio": np.where(knobs["use_ae"], knobs["ae_compression"], 1.0),
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
        burst = DramModel.burst_bytes  # a plain DramModel's channel
        bursts = np.ceil(nbytes / burst)
        cycles = np.round(bursts * burst / bpc * _TIME_SCALE) / _TIME_SCALE
        return np.where(nbytes == 0, 0.0, cycles)

    def _grid_geometry(self, model):
        """The walk's config-independent geometry (:func:`_build_grid_geometry`).

        Memoized on a :class:`~repro.hw.workload.ModelWorkload`, keyed by
        the configuration fields the builder reads, so repeated points and
        batches on a cached workload skip the build.  A bare layer
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
        instances, and each (point, row) schedule is read off line
        envelopes built once per MAC-line count (:meth:`_walk`) —
        mirroring
        :meth:`~repro.hw.accelerator.ViTCoDAccelerator.simulate_attention_grid`
        one abstraction level down, at event granularity.

        Returns a dict of length-``P`` float64 arrays — ``makespan``,
        ``sddmm_makespan``, ``spmm_makespan``, ``denser_busy``,
        ``sparser_busy``, ``dram_busy``, ``softmax_busy`` — plus the
        config-independent scalar ``jobs_executed``: the sums over layers
        of the walk's (points × layers) arrays.  ``bytes_per_cycle``
        holds each point's DRAM channel rate, so ``dram_busy *
        bytes_per_cycle`` is its DRAM traffic.  Element ``i`` of every
        walk total is **bit-for-bit** the reference event loop's total at
        design point ``i``: all event durations live on the
        ``2**-20``-cycle grid, so every sum and max here is exact and
        association-free, and every non-grid expression (byte counts, tile
        counts, service times) repeats the loop's IEEE ops operand for
        operand.
        """
        cols = self._resolve_grid_columns(columns)
        per_layer, jobs = self._walk(model, cols)
        totals = {name: values.sum(axis=1) for name, values in per_layer.items()}
        totals["jobs_executed"] = int(jobs.sum())
        totals["bytes_per_cycle"] = cols["bpc"]
        return totals

    def _walk(self, model, cols):
        """Run the grid walk over resolved columns
        (:meth:`_resolve_grid_columns`); returns ``(per_layer, jobs)``.

        ``per_layer`` maps each :data:`_WALK_FIELDS` name to a
        (points × layers) array, ``jobs`` holds each layer's event count.

        A row reaches a point only through its DRAM start ``base`` and
        K-column step ``s``.  By ``max(x, 0) + a = max(x + a, a)`` and
        ``max_j(base + X[j]) = base + max_j X[j]`` its finish and softmax
        term read two upper envelopes of lines ``s * (j + 1) + c_j``
        (intercepts ``-offset`` and ``C``, module docstring) built once
        per distinct MAC-line count.  A line topping an envelope at both
        ends of a count's step range is the envelope on all of it
        (:func:`_envelope_lines`): one multiply-add per point; other rows
        are evaluated directly (:func:`_direct_envelopes`).  Every value
        stays on the ``2**-20`` grid, so every step is exact, as before.
        """
        g = self._grid_geometry(model)
        points, L = cols["points"], g["layers"]
        per_layer = {name: np.empty((points, L)) for name in _WALK_FIELDS}
        per_layer["softmax_busy"][:] = g["sm_total"]
        if not points:
            return per_layer, g["jobs"]

        # Byte/tile geometry and quantized DRAM service times per (point,
        # layer): the reference loop's expressions with ratio, buffer and
        # bandwidth as (points, 1) columns.  ``s_col`` is the K-column
        # step of both engines' request ladders.
        ratio = cols["ratio"][:, None]
        bpc = cols["bpc"][:, None]
        tiles = k_tiles(g["tensor_bytes"], ratio, cols["act_buffer"][:, None])
        q_service = self._grid_service(
            np.trunc(g["tensor_bytes"] * ratio * tiles), bpc
        )
        s_col = self._grid_service(np.trunc(g["k_bytes_full"] * ratio), bpc)
        v_service = self._grid_service(2 * g["tensor_bytes"], bpc)
        spmm_compute = np.ceil(g["total_nnz"] / cols["lines"][:, None]) \
            * g["per_wave"]

        # Engine MAC-line split per (count, row); the batched allocator
        # is elementwise-exact against the scalar one, floored at 1 as the
        # schedulers require.  Lines below the allocator's minimum raise
        # here for the whole batch, before anything is walked.
        counts, inverse = np.unique(cols["lines"], return_inverse=True)
        row_lines = np.maximum(np.concatenate(allocate_mac_lines_batched(
            counts[:, None], g["denser_macs"], g["sparser_macs"]
        ), axis=1), 1)

        # Each count's points, contiguous in ``order``, and the range of
        # K-column steps they span per (count, layer).
        order = np.argsort(inverse, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(np.bincount(inverse))))
        s_lo = np.minimum.reduceat(s_col[order], bounds[:-1], axis=0)
        s_hi = np.maximum.reduceat(s_col[order], bounds[:-1], axis=0)
        # Row i is layer i's denser engine, row L + i its sparser one.
        steps = np.concatenate([s_col, s_col], axis=1)

        # Per (count, row): the (E, F) lines' slopes [0:2] and intercepts
        # [2:4], the engine's busy time [4] and the softmax floor [5].  A
        # row without jobs keeps a -inf line, no busy time and a -inf
        # floor: an idle engine, the loop's empty-engine case.
        table = np.zeros((counts.size, 6, 2 * L))
        table[:, [2, 3, 5]] = -np.inf
        direct = []
        for band in g["compute_bands"]:
            rows, layer_idx = band["rows"], band["layer"]
            batch = max(1, _GRID_CELL_BUDGET // (2 * band["pad"].size))
            for c0 in range(0, counts.size, batch):
                c = slice(c0, c0 + batch)
                # Both envelopes' intercepts, built in place in one buffer
                # (module docstring): durations -> offset -> E's -offset,
                # total -> addend -> its suffix max -> C.  Padded job slots
                # end at -inf in both (sm_off is +inf there).
                lines = row_lines[c][:, rows, None]
                intercepts = np.empty((len(lines), 2) + band["pad"].shape)
                durations, total = intercepts[:, 0], intercepts[:, 1]
                np.ceil(np.divide(band["pad"], lines, out=durations),
                        out=durations)
                durations *= g["per_wave"][layer_idx][:, None]
                np.cumsum(durations, axis=-1, out=total)
                table[c, 4, rows] = total[..., -1]
                offset = np.subtract(total, durations, out=durations)
                addend = np.subtract(total, band["sm_off"], out=total)
                np.maximum.accumulate(addend[..., ::-1], axis=-1,
                                      out=addend[..., ::-1])
                table[c, 5, rows] = addend[..., 0]
                addend -= offset
                np.subtract(band["pad_floor"], offset, out=offset)
                lo = s_lo[c][:, None, layer_idx]
                hi = s_hi[c][:, None, layer_idx]
                if np.array_equal(lo, hi):
                    hi = None  # one step per row: no range to cover
                slope, icpt, covered = _envelope_lines(
                    intercepts, band["slopes"], lo, hi)
                table[c, 0:2, rows] = slope
                table[c, 2:4, rows] = icpt
                if covered is None:
                    continue
                covered = covered.all(axis=1)
                for k in np.flatnonzero(~covered.all(axis=-1)).tolist():
                    failed = np.flatnonzero(~covered[k])
                    direct.extend(_direct_envelopes(
                        steps, order[bounds[c0 + k]:bounds[c0 + k + 1]],
                        rows[failed], band["slopes"],
                        intercepts[k, :, failed],
                    ))

        # O(rows) per point: each envelope is one multiply-add at the
        # point's step, then the two identities give each row's finish and
        # softmax term.  A sparser row's DRAM start follows the denser K
        # loads.
        per_point = table[inverse]
        envelopes = steps[:, None, :] * per_point[:, 0:2] + per_point[:, 2:4]
        for pts, rows, values in direct:
            envelopes[pts[:, None, None], np.arange(2)[:, None], rows] = values
        envelopes += np.concatenate(
            [q_service, q_service + s_col * g["n_d"]], axis=1
        )[:, None, :]
        finish = np.maximum(envelopes[:, 0], 0.0) + per_point[:, 4]
        sm_term = np.maximum(envelopes[:, 1], per_point[:, 5])
        sm_free = g["sm_total"] + np.maximum(
            np.maximum(sm_term[:, :L], sm_term[:, L:]), 0.0
        )

        # SpMM phase: V streams once the channel and the SDDMM phase are
        # both free; the engines' lines are reunited for the SpMM.
        sddmm_done = np.maximum(np.maximum(finish[:, :L], finish[:, L:]),
                                sm_free)
        dram_free = q_service + s_col * (g["n_d"] + g["n_s"])
        v_done = np.maximum(sddmm_done, dram_free) + v_service
        spmm_done = np.maximum(sddmm_done + spmm_compute, v_done)

        per_layer["makespan"][:] = spmm_done
        per_layer["sddmm_makespan"][:] = sddmm_done
        per_layer["spmm_makespan"][:] = spmm_done - sddmm_done
        per_layer["denser_busy"][:] = per_point[:, 4, :L]
        per_layer["sparser_busy"][:] = per_point[:, 4, L:]
        per_layer["dram_busy"][:] = dram_free + v_service
        return per_layer, g["jobs"]
