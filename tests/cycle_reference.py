"""Reference semantics of the cycle simulator: the per-job event loop.

:class:`ReferenceCycleSimulator` executes the ViTCoD schedule one
:class:`ColumnJob` at a time through :class:`Timeline` resources: the Q
stream takes the DRAM channel first, each engine's K-column loads follow
with double buffering, the shared softmax unit consumes finished columns
in FCFS order, and the V stream closes the layer.  It is the executable
specification the production grid walk
(:class:`~repro.hw.cycle_sim.CycleAccurateSimulator`) is held to bit for
bit, and it is slow: tens of milliseconds per DeiT-Tiny point.

It lives with the other oracles under ``tests/``, outside the package:
the test suite, the perf benchmarks and the CI cross-check put ``tests``
on ``sys.path`` and import it as ``cycle_reference``, most conveniently
through :class:`ReferenceCycleSimEvaluator`, a per-point DSE evaluator
that scores points with the loop and charges energy exactly as
:class:`~repro.sim.evaluator.CycleSimEvaluator` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import List, Optional

import numpy as np

from repro.hw.allocator import allocate_mac_lines
from repro.hw.cycle_sim import _TIME_SCALE, CycleSimResult, merge_cycle_results
from repro.hw.dram import DramModel, DramRequest
from repro.hw.params import VITCOD_DEFAULT, HardwareConfig
from repro.hw.workload import AttentionWorkload, ModelWorkload
from repro.sim.engine import AttentionSimulatorBase
from repro.sim.evaluator import CycleSimEvaluator, _cycle_metrics

__all__ = ["Timeline", "ColumnJob", "EngineSchedule",
           "ReferenceCycleSimulator", "ReferenceCycleSimEvaluator"]


def split_remainder(nnz, cols):
    """Spread ``nnz`` products over ``cols`` columns without losing the
    remainder: the first ``nnz % cols`` columns carry one extra product
    (this loop's own copy of the fallback for heads built without
    per-column counts)."""
    if cols <= 0:
        return np.zeros(0, dtype=np.int64)
    per, rem = divmod(int(nnz), cols)
    counts = np.full(cols, per, dtype=np.int64)
    counts[:rem] += 1
    return counts


def _quantize(cycles):
    """Snap a duration to the ``2**-20``-cycle grid."""
    return round(cycles * _TIME_SCALE) / _TIME_SCALE


@dataclass
class Timeline:
    """A serially-shared resource: requests queue FCFS."""

    name: str
    free_at: float = 0.0
    busy: float = 0.0
    served: int = 0

    def acquire(self, earliest_start, duration):
        """Reserve the resource; returns (start, completion) times."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        start = max(earliest_start, self.free_at)
        self.free_at = start + duration
        self.busy += duration
        self.served += 1
        return start, start + duration

    def utilization(self, makespan):
        if makespan <= 0:
            return 0.0
        return min(1.0, self.busy / makespan)


@dataclass(frozen=True)
class ColumnJob:
    """One K column's worth of SDDMM work on one head."""

    head: int
    column: int
    products: int  # masked Q·K dot products in this column
    load_bytes: int
    sequential: bool


@dataclass
class EngineSchedule:
    """Execution state of one engine (denser or sparser)."""

    name: str
    mac_lines: int
    macs_per_line: int
    jobs: List[ColumnJob] = field(default_factory=list)
    finish_time: float = 0.0

    def compute_cycles(self, job, head_dim):
        if job.products == 0:
            return 0.0
        waves = ceil(job.products / max(self.mac_lines, 1))
        return waves * ceil(head_dim / self.macs_per_line)


class ReferenceCycleSimulator(AttentionSimulatorBase):
    """The scalar event loop, layer by layer.

    Takes the production simulator's parameters and returns the same
    :class:`~repro.hw.cycle_sim.CycleSimResult` values.  Unlike the grid
    walk it accepts any :class:`DramModel`, subclasses included: every
    request goes through ``dram.service_cycles``.
    """

    name = "CycleSimReference"

    def __init__(self, config: Optional[HardwareConfig] = None, use_ae=True,
                 ae_compression=0.5, dram: Optional[DramModel] = None):
        self.config = config or VITCOD_DEFAULT
        self.use_ae = use_ae
        if not 0.0 < ae_compression <= 1.0:
            raise ValueError("ae_compression must be in (0, 1]")
        self.ae_compression = ae_compression
        self.dram = dram or DramModel(
            bytes_per_cycle=self.config.bytes_per_cycle
        )

    def _service(self, nbytes, sequential=True, tag=""):
        """Grid-quantized DRAM service time for one request."""
        return _quantize(self.dram.service_cycles(
            DramRequest(bytes=nbytes, sequential=sequential, tag=tag)
        ))

    def _build_jobs(self, layer: AttentionWorkload):
        """Split the layer's columns into denser and sparser job lists."""
        b = self.config.bytes_per_element
        ratio = self.ae_compression if self.use_ae else 1.0
        k_col_bytes = int(layer.head_dim * b * ratio)
        denser, sparser = [], []
        for h, head in enumerate(layer.heads):
            for col in range(head.num_global_tokens):
                denser.append(ColumnJob(
                    head=h, column=col, products=head.num_tokens,
                    load_bytes=k_col_bytes, sequential=True,
                ))
            col_nnz = head.sparser_column_nnz
            if col_nnz is None:
                # Fall back to the mean density when per-column counts are
                # unavailable (e.g. dense workloads); the remainder lands on
                # the leading columns so no products are dropped.
                col_nnz = split_remainder(
                    head.sparser_nnz, head.num_tokens - head.num_global_tokens
                )
            for j, nnz in enumerate(col_nnz):
                if nnz == 0:
                    continue
                sparser.append(ColumnJob(
                    head=h, column=head.num_global_tokens + j,
                    products=int(nnz), load_bytes=k_col_bytes,
                    sequential=True,
                ))
        return denser, sparser

    def _run_engine(self, engine: EngineSchedule, dram: Timeline,
                    softmax: Timeline, head_dim, start_time=0.0):
        """Run one engine's job list with double-buffered K loads."""
        cfg = self.config
        load_done = start_time
        compute_free = start_time
        for job in engine.jobs:
            service = self._service(job.load_bytes, sequential=job.sequential)
            # Double buffering: the next K load may proceed while the
            # previous column computes, but loads serialise on the channel.
            _, load_done = dram.acquire(load_done, service)
            compute_cycles = engine.compute_cycles(job, head_dim)
            begin = max(compute_free, load_done)
            compute_free = begin + compute_cycles
            engine.finish_time = compute_free
            # Softmax consumes the finished column asynchronously.
            softmax.acquire(
                compute_free,
                ceil(job.products / cfg.softmax_lanes),
            )
        return engine.finish_time

    def _layer_geometry(self, layer: AttentionWorkload):
        """Byte/tile quantities shared by both engines."""
        cfg = self.config
        b = cfg.bytes_per_element
        ratio = self.ae_compression if self.use_ae else 1.0
        k_col_bytes = int(layer.head_dim * b * ratio)
        tensor_bytes = layer.num_tokens * layer.embed_dim * b
        # Q stream occupies the channel up front (in k-tile chunks that
        # interleave with the K column loads in the real machine; FCFS
        # serialisation is a faithful upper bound at this granularity).
        k_tiles = max(1, ceil(tensor_bytes * ratio / (cfg.act_buffer_bytes / 2)))
        q_stream = int(tensor_bytes * ratio * k_tiles)
        return k_col_bytes, tensor_bytes, q_stream

    def simulate_layer(self, layer: AttentionWorkload) -> CycleSimResult:
        """Reference event loop: one :class:`Timeline` acquire per event."""
        cfg = self.config
        k_col_bytes, tensor_bytes, q_stream = self._layer_geometry(layer)

        denser_jobs, sparser_jobs = self._build_jobs(layer)
        denser_macs = sum(j.products for j in denser_jobs) * layer.head_dim
        sparser_macs = sum(j.products for j in sparser_jobs) * layer.head_dim
        alloc = allocate_mac_lines(cfg.num_mac_lines, denser_macs, sparser_macs)

        denser = EngineSchedule("denser", max(alloc.denser_lines, 1),
                                cfg.macs_per_line, denser_jobs)
        sparser = EngineSchedule("sparser", max(alloc.sparser_lines, 1),
                                 cfg.macs_per_line, sparser_jobs)
        dram = Timeline("dram")
        softmax = Timeline("softmax")

        dram.acquire(0.0, self._service(q_stream, tag="q-stream"))

        t_denser = self._run_engine(denser, dram, softmax, layer.head_dim)
        t_sparser = self._run_engine(sparser, dram, softmax, layer.head_dim)
        sddmm_done = max(t_denser, t_sparser, softmax.free_at)

        # SpMM phase: output-stationary on the full array; V streams and the
        # engines' lines are reunited.
        spmm_products = layer.total_nnz
        spmm_compute = (
            ceil(spmm_products / cfg.num_mac_lines)
            * ceil(layer.head_dim / cfg.macs_per_line)
        )
        v_bytes = 2 * tensor_bytes
        _, v_done = dram.acquire(
            sddmm_done, self._service(v_bytes, tag="v-stream")
        )
        spmm_done = max(sddmm_done + spmm_compute, v_done)

        denser_busy = sum(
            denser.compute_cycles(j, layer.head_dim) for j in denser_jobs
        )
        sparser_busy = sum(
            sparser.compute_cycles(j, layer.head_dim) for j in sparser_jobs
        )
        return CycleSimResult(
            makespan=spmm_done,
            sddmm_makespan=sddmm_done,
            spmm_makespan=spmm_done - sddmm_done,
            denser_busy=denser_busy,
            sparser_busy=sparser_busy,
            dram_busy=dram.busy,
            softmax_busy=softmax.busy,
            jobs_executed=len(denser_jobs) + len(sparser_jobs) + 2,
        )

    simulate_attention_layer = simulate_layer

    def simulate_attention(self, model) -> CycleSimResult:
        """Loop over a model's (or a layer sequence's) attention layers."""
        if isinstance(model, ModelWorkload):
            model = model.attention_layers
        return merge_cycle_results(self.simulate_layer(layer) for layer in model)


class ReferenceCycleSimEvaluator:
    """:class:`~repro.sim.evaluator.CycleSimEvaluator` on the reference loop.

    Same energy charge; only the simulator differs.  A per-point callable
    by design: it has no ``evaluate_batch`` (it does not subclass the
    production evaluator, so it cannot inherit one), and the DSE engine
    lifts it into rows with
    :class:`~repro.sim.evaluator.PointEvaluator`, scoring every point
    with the loop — a reference check never compares the grid walk with
    itself.  A custom evaluator on the wire
    (``{"name": "custom:cycle-reference"}``), so it can never stand in for
    the production ``"cycle"`` strategy in a manifest.  Its knob set is
    the cycle walk's: ``_simulator`` names the walk whose resolver
    :func:`~repro.sim.evaluator.check_swept_knobs` runs, so a sweep of a
    knob neither models is refused before anything is scored.
    """

    name = "cycle-reference"
    _simulator = staticmethod(CycleSimEvaluator._simulator)

    def __call__(self, workload, config, accel_kwargs):
        result = ReferenceCycleSimulator(
            config=config, **accel_kwargs
        ).simulate_attention(workload)
        (metrics,) = _cycle_metrics(
            workload, config, result.makespan, result.dram_busy,
            config.bytes_per_cycle,
        )
        return metrics
