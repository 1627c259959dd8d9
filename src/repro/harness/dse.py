"""Design-space exploration (DSE) over ViTCoD accelerator configurations.

The paper motivates its design-point choices (512 MACs, 76.8 GB/s, 320 KB
SRAM, 0.5 AE compression) qualitatively; this module makes the trade-offs
measurable: sweep any subset of {MAC lines, bandwidth, buffer size, AE
compression, forwarding hit rate} over a workload, collect latency/energy,
and extract the Pareto frontier.

Every grid enters through :func:`check_grid`, which checks each swept
knob's values against the knob's domain once, before any pool, store or
job exists.  All evaluation then goes through ONE streaming engine:

* :func:`iter_design_space` lazily walks the grid cross-product and yields
  :class:`DesignPoint` objects as they complete — huge grids are never
  materialised, and an incremental :class:`ParetoFront` can prune the
  stream on the fly (pass ``frontier=``);
* :func:`sweep_design_space` is the eager wrapper: it drains the stream
  and restores deterministic grid order, so serial and parallel runs are
  interchangeable (and equal to the streaming results point for point).

*What* scores a point is pluggable (:mod:`repro.sim.evaluator`):
``"analytical"`` (the default closed-form model), ``"cycle"`` (the
event-driven simulator), ``"hybrid"`` (prune analytically, re-score the
surviving frontier cycle-accurately, in grid order), any
:class:`~repro.sim.evaluator.Evaluator`, or a per-point callable.  Every
chunk of grid points is one ``evaluate_batch`` call with one result or
one failure per row: a failed row is dropped with a
:class:`RuntimeWarning` (the sweep never hangs on a poisoned worker
task), a call that raises fails every row of its chunk, and an
:class:`~repro.sim.evaluator.UnsupportedParameterError` propagates.
``chunksize`` (CLI: ``--batch-size``) bounds the chunk; results are
bit-for-bit the same for any chunk size and any ``n_jobs``.

``n_jobs`` is a worker budget of the in-memory sweeps only: chunks fan
across ``concurrent.futures`` workers with a bounded number in flight,
and the workload ships once per worker through the pool initializer
(:func:`repro.perf.seed_worker_workload`).  :func:`sweep_design_space`
*pilots* the first chunk before committing to a pool: sweeps cheaper
than spawning workers run serially, and sweeps that fan out size their
chunks to a wall-clock target.  An explicit ``chunksize`` bypasses the
pilot — pass one for an expensive per-point callable.  Sharded sweeps
(:mod:`repro.dist`) scale out with more shard processes instead.

The deterministic grid index is also a *partition key*
(:func:`grid_size` / :func:`grid_point` /
:func:`iter_indexed_design_points`): :mod:`repro.dist` shards disjoint
index subsets across hosts, and a merge reproduces the single-process
sweep bit for bit.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass
from itertools import islice, product
from math import ceil
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Sequence

import numpy as np

from .. import obs
from ..faults.errors import TransientError
from ..hw.params import VITCOD_DEFAULT, HardwareConfig
from ..hw.workload import ModelWorkload
from ..perf.cache import seed_worker_workload, seeded_workload
from ..sim.evaluator import (
    HybridEvaluator,
    UnsupportedParameterError,
    check_dse_values,
    resolve_evaluator,
)

__all__ = [
    "DesignPoint",
    "PointFailure",
    "ParetoFront",
    "check_grid",
    "grid_size",
    "grid_point",
    "iter_indexed_design_points",
    "iter_design_space",
    "sweep_design_space",
    "pareto_frontier",
    "sensitivity",
]

_log = obs.get_logger("harness.dse")


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated configuration."""

    parameters: tuple  # sorted (name, value) pairs
    seconds: float
    energy_joules: float
    area_proxy: float  # MAC count (a first-order area stand-in)

    def parameter(self, name):
        return dict(self.parameters)[name]

    @property
    def edp(self):
        """Energy-delay product (J·s) — the usual DSE objective."""
        return self.seconds * self.energy_joules


@dataclass(frozen=True)
class PointFailure:
    """A design point whose evaluator raised.

    The in-memory sweeps drop failures with a :class:`RuntimeWarning`; the
    sharded runners (:mod:`repro.dist`) instead persist them as per-point
    completion records, so a resumed shard does not re-run a point that
    deterministically fails and a merge can reproduce the single-process
    drop behaviour.
    """

    parameters: tuple
    error: str
    #: True when the failure is worth retrying: the evaluator raised a
    #: :class:`repro.faults.TransientError` (or an ``OSError`` — I/O and
    #: resource hiccups), rather than failing deterministically.  The
    #: sharded runners re-evaluate transient failures under a backoff
    #: budget before persisting anything.
    transient: bool = False


def _evaluate_chunk(workload, base_config, names, chunk, evaluator):
    """Score ``(grid_index, values)`` pairs with one ``evaluate_batch`` call.

    Module-level so process pools can pickle the task; ``workload=None``
    means the workload the pool initializer seeded into this worker
    (:func:`repro.perf.seed_worker_workload`).  Each row's entry becomes
    a :class:`DesignPoint` (area proxy: swept MAC lines times the base
    config's per-line width) or, when it is an exception, a
    :class:`PointFailure` carrying ``"<Type>: <message>"``; an exception
    raised out of the call fails every row.
    :class:`~repro.sim.evaluator.UnsupportedParameterError` propagates
    either way: a structurally invalid sweep, not a per-point failure.
    """
    if workload is None:
        workload = seeded_workload()
    rows = [values for _, values in chunk]
    try:
        results = evaluator.evaluate_batch(workload, base_config, names, rows)
        if len(results) != len(rows):
            raise RuntimeError(
                f"evaluate_batch returned {len(results)} results "
                f"for {len(rows)} points"
            )
    except UnsupportedParameterError:
        raise
    except Exception as exc:  # noqa: BLE001 - fails every row below
        results = [exc] * len(rows)
    lines_at = names.index("mac_lines") if "mac_lines" in names else None
    pairs = []
    for (index, values), result in zip(chunk, results):
        parameters = tuple(zip(names, values))
        if isinstance(result, UnsupportedParameterError):
            raise result
        if isinstance(result, Exception):
            point = PointFailure(
                parameters=parameters,
                error=f"{type(result).__name__}: {result}",
                transient=isinstance(result, (TransientError, OSError)),
            )
        else:
            lines = (
                int(values[lines_at])
                if lines_at is not None
                else base_config.num_mac_lines
            )
            point = DesignPoint(
                parameters=parameters,
                seconds=result.seconds,
                energy_joules=result.energy_joules,
                area_proxy=lines * base_config.macs_per_line,
            )
        pairs.append((index, point))
    return pairs


class ParetoFront:
    """Incremental non-dominated set under minimise-objectives.

    Feed points one at a time with :meth:`offer`; at any moment
    :attr:`points` is exactly :func:`pareto_frontier` of everything offered
    so far (equal points never dominate each other, so duplicates of a
    frontier point are all kept — the same convention as the eager scan).
    This is what lets a streaming sweep prune a huge grid without ever
    holding more than the current frontier.
    """

    def __init__(self, objectives=("seconds", "energy_joules")):
        self.objectives = tuple(objectives)
        self._points: List = []
        self._values: List[np.ndarray] = []
        self.offered = 0

    def _objective_values(self, point):
        return np.array(
            [getattr(point, obj) for obj in self.objectives], dtype=np.float64
        )

    def offer(self, point) -> bool:
        """Add ``point`` if currently non-dominated; returns whether kept.

        A newly-kept point evicts any frontier members it dominates.
        """
        self.offered += 1
        value = self._objective_values(point)
        if self._values:
            values = np.vstack(self._values)
            less_eq = (values <= value).all(axis=1)
            strictly = (values < value).any(axis=1)
            if (less_eq & strictly).any():
                return False
            dominated = (value <= values).all(axis=1) & (value < values).any(axis=1)
            if dominated.any():
                keep = ~dominated
                self._points = [p for p, k in zip(self._points, keep) if k]
                self._values = [v for v, k in zip(self._values, keep) if k]
        self._points.append(point)
        self._values.append(value)
        return True

    def offer_all(self, points: Sequence) -> List:
        """Offer a whole chunk at once; returns the points kept.

        Bit-for-bit the sequential :meth:`offer` loop: the returned list
        holds exactly the points a sequential loop would have kept (in
        arrival order, including points a *later* arrival evicts — kept
        means non-dominated at offer time), and the frontier afterwards
        is identical.  The dominance tests run as whole-chunk numpy
        broadcasts instead of one :meth:`offer` vstack per point, which
        is what lets streaming sweeps prune chunk-sized batches at array
        speed.

        Equivalence argument: a sequential offer rejects point ``j`` iff
        some frontier member dominates it on arrival; every point offered
        earlier (kept or rejected, chunk or pre-chunk) is dominated by a
        frontier member unless it is one, and dominance is transitive —
        so ``j`` is rejected iff *some earlier-offered point* dominates
        it, which is the broadcast below.  The survivors' frontier is
        then the non-dominated subset of (old frontier + kept), in
        first-seen order, with equal points never dominating each other —
        exactly :func:`pareto_frontier`'s convention.
        """
        points = list(points)
        if not points:
            return []
        self.offered += len(points)
        new = np.array(
            [[getattr(p, obj) for obj in self.objectives] for p in points],
            dtype=np.float64,
        )
        if self._values:
            old = np.vstack(self._values)
            less_eq = (old[:, None, :] <= new[None, :, :]).all(axis=2)
            strictly = (old[:, None, :] < new[None, :, :]).any(axis=2)
            rejected = (less_eq & strictly).any(axis=0)
        else:
            rejected = np.zeros(len(points), dtype=bool)
        less_eq = (new[:, None, :] <= new[None, :, :]).all(axis=2)
        strictly = (new[:, None, :] < new[None, :, :]).any(axis=2)
        earlier = np.triu(np.ones((len(points), len(points)), dtype=bool), 1)
        rejected |= (less_eq & strictly & earlier).any(axis=0)
        kept = [p for p, r in zip(points, rejected.tolist()) if not r]
        if kept:
            merged = self._points + kept
            values = np.vstack(
                self._values + [v for v, r in zip(new, rejected.tolist()) if not r]
            )
            if values.shape[1] == 2:
                keep_mask = _pareto_mask_sorted_2d(values)
            else:
                keep_mask = _pareto_mask_pairwise(values)
            self._points = [p for p, k in zip(merged, keep_mask) if k]
            self._values = [v for v, k in zip(values, keep_mask) if k]
        return kept

    def update(self, points: Iterable) -> "ParetoFront":
        """Offer every point of an iterable (draining it); returns self."""
        for point in points:
            self.offer(point)
        return self

    @property
    def points(self) -> List:
        """Current frontier, in first-seen order."""
        return list(self._points)

    def __len__(self):
        return len(self._points)

    def __iter__(self):
        return iter(self._points)


def check_grid(grid) -> Dict[str, tuple]:
    """Materialise a grid's values as tuples and check every knob's domain.

    THE grid check, run wherever a grid enters — the in-memory sweeps,
    :func:`repro.dist.run_shard`, the CLI's ``--grid`` and the serve
    layer's ``POST /jobs`` — before any pool, store, subprocess or job
    exists (see :func:`repro.sim.evaluator.check_dse_values`).  One-shot
    iterables are read once.  An empty grid, a parameter without values,
    an unknown name or an out-of-domain value raises :class:`ValueError`.
    """
    if not grid:
        raise ValueError("empty DSE grid")
    checked = {}
    for name, values in grid.items():
        values = tuple(values)
        if not values:
            raise ValueError(f"DSE parameter {name!r} has no values")
        check_dse_values(name, values)
        checked[name] = values
    return checked


def grid_size(grid) -> int:
    """Number of points in the grid cross-product."""
    size = 1
    for values in check_grid(grid).values():
        size *= len(values)
    return size


def grid_point(grid, index: int) -> tuple:
    """Decode one grid index into its value tuple (sorted-name order).

    The index is the point's position in the deterministic sweep order —
    ``enumerate(product(*(grid[n] for n in sorted(grid))))`` — decoded in
    O(#parameters) by mixed-radix arithmetic, so shards of a huge grid can
    materialise exactly their own points without walking the cross-product.
    """
    grid = check_grid(grid)
    return _decode_grid_index(grid, sorted(grid), index)


def _decode_grid_index(grid, names, index):
    """:func:`grid_point` over an already-checked grid."""
    if index < 0:
        raise IndexError(f"grid index must be non-negative, got {index}")
    values = []
    # itertools.product varies the LAST name fastest: peel digits off the
    # little end of the mixed-radix representation.
    remaining = index
    for name in reversed(names):
        choices = grid[name]
        remaining, digit = divmod(remaining, len(choices))
        values.append(choices[digit])
    if remaining:
        raise IndexError(
            f"grid index {index} out of range "
            f"(grid has {grid_size(grid)} points)"
        )
    return tuple(reversed(values))


def _chunked(iterable, size):
    """Yield lists of up to ``size`` items."""
    iterator = iter(iterable)
    while True:
        chunk = list(islice(iterator, size))
        if not chunk:
            return
        yield chunk


#: Grid points scored per ``evaluate_batch`` call unless ``chunksize``
#: says otherwise: big enough to amortise every numpy launch across the
#: chunk (the per-point share of array-op overhead is negligible by a few
#: hundred points), small enough to bound the (points × layers)
#: temporaries and keep streams/stores responsive.  Also the cap on
#: planned parallel chunk sizes.
_BATCH_CHUNK = 1024

#: Eager sweeps below this much estimated total work run serially even
#: when ``n_jobs > 1``: spawning a process pool costs a few hundred
#: milliseconds, which used to buy cheap-point sweeps a ~0.7× "speedup"
#: (BENCH ``cycle_sim_dse`` at 48 vectorized points).
_AUTO_SERIAL_SECONDS = 0.25

#: Adaptive chunks aim for this much work per task: big enough to amortise
#: dispatch, small enough to keep workers balanced near the sweep's tail.
_TARGET_CHUNK_SECONDS = 0.05


def _plan_parallel(per_point_s, remaining, n_jobs):
    """Pick ``(n_jobs, chunksize)`` from a measured per-point cost.

    Serial (``n_jobs=1``) when the whole remaining sweep is estimated
    cheaper than :data:`_AUTO_SERIAL_SECONDS` (the pool would cost more
    than it saves); otherwise chunks target
    :data:`_TARGET_CHUNK_SECONDS` of work each — expensive points get
    small chunks (better balance), cheap points get large ones (less
    dispatch) — capped at the historical one-chunk-per-worker split and
    floored at one point.
    """
    if remaining <= 0 or per_point_s * remaining < _AUTO_SERIAL_SECONDS:
        return 1, max(remaining, 1)
    per_worker = -(-remaining // n_jobs)
    target = max(1, ceil(_TARGET_CHUNK_SECONDS / max(per_point_s, 1e-9)))
    return n_jobs, min(per_worker, target)


def _resolve_n_jobs(n_jobs):
    if n_jobs is None:
        n_jobs = os.cpu_count() or 1
    return max(1, int(n_jobs))


def _piloted_stream(
    workload, base_config, names, indexed, total, n_jobs, chunksize, evaluator
) -> Iterator[tuple]:
    """Adaptive :func:`_stream_evaluations` over a known-length stream.

    With ``n_jobs > 1`` and no explicit ``chunksize``, times the first
    :data:`_BATCH_CHUNK`-point chunk in-process — so the measured
    per-point cost is the chunked cost the rest of the sweep would pay —
    then either finishes serially (estimated remaining work below
    :data:`_AUTO_SERIAL_SECONDS`: the pool would cost more than it saves)
    or fans out with :func:`_plan_parallel`-sized chunks.  An explicit
    ``chunksize`` skips the pilot and streams fixed chunks across
    ``n_jobs`` workers.  Yields ``(grid_index, point)`` pairs with
    failures warn-dropped; parallel yields arrive out of order.
    """
    indexed = iter(indexed)
    if n_jobs > 1 and chunksize is None:
        pilot_chunk = list(islice(indexed, _BATCH_CHUNK))
        begin = perf_counter()
        pilot = _evaluate_chunk(workload, base_config, names, pilot_chunk, evaluator)
        per_point = (perf_counter() - begin) / len(pilot_chunk)
        _note_chunk(pilot)
        yield from _filter_failures(pilot)
        n_jobs, chunksize = _plan_parallel(per_point, total - len(pilot_chunk), n_jobs)
        chunksize = None if n_jobs == 1 else min(chunksize, _BATCH_CHUNK)
        _note_pilot(n_jobs, chunksize)
    yield from _stream_evaluations(
        workload, base_config, names, indexed, n_jobs, chunksize, evaluator
    )


def _hybrid_survivors(pairs, objectives=("seconds", "energy_joules")):
    """Coarse-frontier survivors of ``(grid_index, point)`` pairs.

    THE survivor-selection rule of a hybrid sweep, shared by the
    in-memory two-phase sweep (:func:`_iter_hybrid`) and the sharded
    merge (:func:`repro.dist.merge_store`) so the two can never drift:
    offer every coarse point to a :class:`ParetoFront` and return the
    surviving ``(grid_index, point)`` pairs in ascending grid order.  The
    non-dominated set of a multiset is arrival-order independent, so any
    execution order (serial, pooled, sharded) selects the same indices.
    """
    front = ParetoFront(objectives=objectives)
    index_of = {}  # id(point) -> grid index (points are unique objects)
    for chunk in _chunked(pairs, _BATCH_CHUNK):
        chunk_index = {id(point): index for index, point in chunk}
        for point in front.offer_all([point for _, point in chunk]):
            index_of[id(point)] = chunk_index[id(point)]
    return sorted(
        ((index_of[id(point)], point) for point in front.points),
        key=lambda pair: pair[0],
    )


def _note_chunk(pairs):
    """Count one completed chunk's results into the telemetry registry.

    Called once per dispatched chunk in the consumer process (pool chunks
    are counted on arrival — worker-process registries don't survive the
    hop).  A disabled registry — the default — costs one attribute check.
    """
    registry = obs.get_registry()
    if not registry.enabled:
        return
    failed = sum(1 for _, point in pairs if isinstance(point, PointFailure))
    registry.counter("dse_chunks_dispatched").inc()
    if len(pairs) > failed:
        registry.counter("dse_points_scored").inc(len(pairs) - failed)


def _note_pilot(n_jobs, chunksize):
    """Record the pilot's pool decision (see :func:`_plan_parallel`)."""
    registry = obs.get_registry()
    if not registry.enabled:
        return
    mode = "serial" if n_jobs == 1 else "parallel"
    registry.counter("dse_pilot_decisions", mode=mode).inc()
    if n_jobs > 1 and chunksize:
        registry.gauge("dse_pilot_chunk_size").set(chunksize)


def _filter_failures(pairs):
    """Pass ``(index, DesignPoint)`` pairs through; warn-and-drop failures."""
    for index, point in pairs:
        if isinstance(point, PointFailure):
            _log.warning(
                "DSE point %d %r dropped: evaluator raised %s",
                index,
                dict(point.parameters),
                point.error,
            )
            obs.counter("dse_points_failed").inc()
            warnings.warn(
                f"DSE point {index} {dict(point.parameters)!r} dropped: "
                f"evaluator raised {point.error}",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        yield index, point


def _stream_evaluations(
    workload,
    base_config,
    names,
    indexed,
    n_jobs,
    chunksize,
    evaluator,
    keep_failures=False,
) -> Iterator[tuple]:
    """Evaluate ``(grid_index, values)`` pairs, yielding completed points.

    The engine under both the lazy and the eager sweep: every chunk of
    ``chunksize or`` :data:`_BATCH_CHUNK` points is one
    :func:`_evaluate_chunk` call.  Serial runs evaluate in the order
    given (laziness is per chunk: an early-stopping consumer evaluates
    at most one chunk beyond what it takes); parallel runs keep at most
    ``2 * n_jobs`` chunks in flight and yield chunks as they complete
    (out of order — that IS the streaming contract; sort by index to
    recover input order).  The workload is shipped once per worker via
    the pool initializer, so chunk tasks stay tiny and workers reuse one
    memoized workload object.
    Only pool *creation* may fall back to threads (sandboxes without
    process/semaphore support); failures outside the evaluator — including
    BrokenProcessPool — propagate.  ``keep_failures=True`` yields
    :class:`PointFailure` results instead of warn-dropping them (the
    sharded runners persist them as completion records).
    """
    sieve = (lambda pairs: pairs) if keep_failures else _filter_failures
    chunks = _chunked(indexed, chunksize or _BATCH_CHUNK)
    if n_jobs == 1:
        for chunk in chunks:
            with obs.span("dse_chunk"):
                scored = _evaluate_chunk(workload, base_config, names, chunk, evaluator)
            _note_chunk(scored)
            yield from sieve(scored)
        return
    try:
        pool = ProcessPoolExecutor(
            max_workers=n_jobs,
            initializer=seed_worker_workload,
            initargs=(workload,),
        )
        task_workload = None  # workers read the seeded copy instead
    except OSError:
        pool = ThreadPoolExecutor(max_workers=n_jobs)
        task_workload = workload
    obs.counter("dse_pool_spawns").inc()

    def submit(chunk):
        return pool.submit(
            _evaluate_chunk, task_workload, base_config, names, chunk, evaluator
        )

    try:
        pending = set()
        for chunk in islice(chunks, 2 * n_jobs):
            pending.add(submit(chunk))
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                chunk = next(chunks, None)
                if chunk is not None:
                    pending.add(submit(chunk))
                scored = future.result()
                _note_chunk(scored)
                yield from sieve(scored)
        pool.shutdown(wait=True)
    finally:
        # An abandoned stream (consumer stopped early) must not block on
        # the in-flight chunks: cancel what hasn't started and return
        # without waiting for what has.
        pool.shutdown(wait=False, cancel_futures=True)


def iter_indexed_design_points(
    workload: ModelWorkload,
    grid: Dict[str, Sequence],
    indices: Iterable[int] = None,
    base_config: HardwareConfig = None,
    chunksize: int = None,
    evaluator=None,
    keep_failures=False,
) -> Iterator[tuple]:
    """Shard-aware streaming: evaluate a subset of grid indices.

    Yields ``(grid_index, DesignPoint)`` pairs for exactly the given
    ``indices`` (any iterable of positions in the deterministic sweep
    order; ``None`` means the whole grid).  This is the execution surface
    :mod:`repro.dist` shards across processes and hosts: each shard holds
    a disjoint index subset, and because the index *is* the partition key,
    re-running a shard can skip indices its result store already holds.

    Points are scored in this process and yielded in the order given (a
    shard is the unit of fan-out; scale out with more shards).  With
    ``keep_failures=True`` a point whose evaluator raised arrives as a
    ``(grid_index, PointFailure)`` pair instead of being warn-dropped, so
    callers with durable stores can record the failure as a completion.

    Hybrid evaluators are rejected: their coarse phase is shardable (pass
    ``evaluator.coarse``) but the prune needs the whole grid — see
    :func:`repro.dist.merge_store`, which re-scores the merged frontier.
    """
    grid = check_grid(grid)
    names = sorted(grid)
    evaluator = resolve_evaluator(evaluator)
    if isinstance(evaluator, HybridEvaluator):
        raise ValueError(
            "hybrid evaluators cannot stream indexed points: the prune "
            "needs the whole grid; shard evaluator.coarse and re-score "
            "the merged frontier instead (see repro.dist.merge_store)"
        )
    base_config = base_config or VITCOD_DEFAULT
    if indices is None:
        indexed = enumerate(product(*(grid[n] for n in names)))
    else:
        indexed = ((int(i), _decode_grid_index(grid, names, int(i))) for i in indices)
    yield from _stream_evaluations(
        workload,
        base_config,
        names,
        indexed,
        1,
        chunksize,
        evaluator,
        keep_failures=keep_failures,
    )


def iter_design_space(
    workload: ModelWorkload,
    grid: Dict[str, Sequence],
    base_config: HardwareConfig = None,
    n_jobs: int = 1,
    frontier: ParetoFront = None,
    evaluator=None,
    chunksize: int = None,
) -> Iterator[DesignPoint]:
    """Stream the grid cross-product: yield each :class:`DesignPoint` as it
    completes, never materialising the full grid.

    ``n_jobs > 1`` (or ``None`` for one per CPU) fans chunks of points
    across worker processes and yields them ``as_completed`` — out of grid
    order, but the multiset of points is exactly the eager sweep's.  With
    ``n_jobs == 1`` points arrive in grid order, lazily.

    Pass a :class:`ParetoFront` as ``frontier`` for incremental pruning:
    only points non-dominated *at the time they arrive* are yielded, and
    after the stream is drained ``frontier.points`` is exactly
    :func:`pareto_frontier` of the whole grid.

    ``evaluator`` selects what scores each point (see
    :func:`~repro.sim.evaluator.resolve_evaluator`): ``None``/
    ``"analytical"`` keep the closed-form default, ``"cycle"`` streams
    event-driven :class:`~repro.hw.cycle_sim.CycleAccurateSimulator`
    points through the same bounded-chunk engine (tune ``chunksize`` down
    for very expensive points), and ``"hybrid"`` — or any
    :class:`~repro.sim.evaluator.HybridEvaluator` — prunes the grid with
    its coarse evaluator and yields only the surviving frontier re-scored
    by its fine evaluator, in deterministic grid order.  Both hybrid
    phases with ``n_jobs > 1`` (and no explicit ``chunksize``) are
    adaptive like the eager sweep: each pilots its first chunk and stays
    serial when the phase is cheaper than spawning workers.  Plain
    streaming sweeps do not pilot — a lazy stream's length is unknown, so
    there is nothing to estimate against.  Frontier pruning offers each
    chunk at once (:meth:`ParetoFront.offer_all`).

    Example
    -------
    >>> front = ParetoFront()
    >>> for point in iter_design_space(workload, grid, frontier=front):
    ...     print("candidate", point.parameters)   # prefix-frontier points
    >>> best = front.points                        # exact final frontier
    """
    evaluator = resolve_evaluator(evaluator)
    grid = check_grid(grid)
    if isinstance(evaluator, HybridEvaluator):
        yield from _iter_hybrid(
            workload,
            grid,
            base_config,
            n_jobs,
            frontier,
            evaluator,
            chunksize,
        )
        return
    names = sorted(grid)
    stream = _stream_evaluations(
        workload,
        base_config or VITCOD_DEFAULT,
        names,
        enumerate(product(*(grid[n] for n in names))),
        _resolve_n_jobs(n_jobs),
        chunksize,
        evaluator,
    )
    if frontier is None:
        for _, point in stream:
            yield point
        return
    # Points arrive chunk-at-a-time anyway, so prune each chunk with one
    # whole-chunk dominance broadcast — the same yielded points and final
    # frontier as one ``offer`` per point; laziness stays per-chunk.
    for chunk in _chunked(stream, chunksize or _BATCH_CHUNK):
        yield from frontier.offer_all([point for _, point in chunk])


def _iter_hybrid(
    workload,
    grid,
    base_config,
    n_jobs,
    frontier,
    evaluator: HybridEvaluator,
    chunksize,
) -> Iterator[DesignPoint]:
    """Two-phase sweep: coarse-prune the grid, fine-score the survivors.

    Phase 1 streams every grid point through ``evaluator.coarse`` into an
    incremental :class:`ParetoFront`; phase 2 re-scores only the surviving
    frontier with ``evaluator.fine``.  Both phases go through
    :func:`_piloted_stream`, so a cheap phase with ``n_jobs > 1`` stays
    serial instead of paying for a pool it cannot amortise.  ``grid`` is
    already checked.  Survivors are processed and yielded in ascending
    grid order, so hybrid sweeps are deterministic regardless of
    ``n_jobs`` or completion order (the non-dominated set of a multiset
    of points does not depend on arrival order).
    """
    names = sorted(grid)
    base_config = base_config or VITCOD_DEFAULT
    n_jobs = _resolve_n_jobs(n_jobs)

    coarse_objectives = (
        frontier.objectives if frontier is not None else ("seconds", "energy_joules")
    )
    coarse_stream = _piloted_stream(
        workload,
        base_config,
        names,
        enumerate(product(*(grid[n] for n in names))),
        grid_size(grid),
        n_jobs,
        chunksize,
        evaluator.coarse,
    )
    survivors = _hybrid_survivors(coarse_stream, objectives=coarse_objectives)
    indexed = (
        (index, tuple(dict(point.parameters)[name] for name in names))
        for index, point in survivors
    )
    rescored = _piloted_stream(
        workload,
        base_config,
        names,
        indexed,
        len(survivors),
        min(n_jobs, max(len(survivors), 1)),
        chunksize,
        evaluator.fine,
    )
    for index, point in sorted(rescored, key=lambda pair: pair[0]):
        if frontier is not None and not frontier.offer(point):
            continue
        yield point


def sweep_design_space(
    workload: ModelWorkload,
    grid: Dict[str, Sequence],
    base_config: HardwareConfig = None,
    n_jobs: int = 1,
    evaluator=None,
    chunksize: int = None,
) -> List[DesignPoint]:
    """Evaluate the cross product of ``grid`` on ``workload``, eagerly.

    A drained, re-ordered :func:`iter_design_space`: ``n_jobs`` fans grid
    points across worker processes (``None`` means one per CPU); results
    are returned in grid order regardless, and a parallel sweep returns
    exactly what the serial sweep would.  ``evaluator`` selects the
    scoring strategy (``"analytical"`` default, ``"cycle"``, ``"hybrid"``
    or an :class:`~repro.sim.evaluator.Evaluator`); hybrid sweeps return
    only the re-scored frontier survivors.  Points whose evaluator raised
    are dropped (with a :class:`RuntimeWarning`), so the result can be
    shorter than the grid.

    ``n_jobs > 1`` sweeps are *adaptive*: the first chunk is timed
    in-process, and the sweep only spawns a pool when the estimated
    remaining work exceeds :data:`_AUTO_SERIAL_SECONDS` (pool spawn costs
    real wall-clock, so cheap grids are faster serial).  When it does fan
    out, chunks are sized to ~:data:`_TARGET_CHUNK_SECONDS` of estimated
    work instead of a fixed one-chunk-per-worker split.  Either way the
    returned points are identical to the serial sweep's.

    An explicit ``chunksize`` is a caller override of both the pilot and
    the chunk planning (the same convention the hybrid phases use):
    points are scored in fixed chunks of that many, across ``n_jobs``
    workers when ``n_jobs > 1`` — so it forces the pool (CLI:
    ``--batch-size``).  Pass one for an expensive per-point callable,
    whose pilot would otherwise score a whole :data:`_BATCH_CHUNK` chunk
    in-process.

    Example
    -------
    >>> grid = {"mac_lines": [32, 64, 128], "ae_compression": [None, 0.5]}
    >>> points = sweep_design_space(workload, grid, n_jobs=4)
    """
    # Check once: the grid is read both here (for sizing/ordering) and
    # inside the streaming engine, so one-shot iterables must not be
    # consumed twice.
    grid = check_grid(grid)
    evaluator = resolve_evaluator(evaluator)
    if isinstance(evaluator, HybridEvaluator):
        # The hybrid stream already arrives in deterministic grid order.
        hybrid_stream = iter_design_space(
            workload,
            grid,
            base_config,
            n_jobs=n_jobs,
            evaluator=evaluator,
            chunksize=chunksize,
        )
        with obs.span("dse_sweep", evaluator="hybrid", points=grid_size(grid)):
            return list(hybrid_stream)
    names = sorted(grid)
    combos = list(product(*(grid[n] for n in names)))
    stream = _piloted_stream(
        workload,
        base_config or VITCOD_DEFAULT,
        names,
        enumerate(combos),
        len(combos),
        min(_resolve_n_jobs(n_jobs), len(combos)),
        chunksize,
        evaluator,
    )
    points: List[DesignPoint] = [None] * len(combos)
    with obs.span("dse_sweep", points=len(combos)):
        for index, point in stream:
            points[index] = point
    return [point for point in points if point is not None]


def _pareto_mask_sorted_2d(values: np.ndarray) -> np.ndarray:
    """Non-dominated mask for two minimise-objectives via lexsort + scan.

    A point is dominated iff some point has both coordinates ``<=`` and at
    least one ``<`` — equal points never dominate each other.  After sorting
    by (a, b), a point is dominated exactly when the running minimum of ``b``
    over strictly-smaller ``a`` reaches it, or a same-``a`` point has a
    strictly smaller ``b``.
    """
    order = np.lexsort((values[:, 1], values[:, 0]))
    a = values[order, 0]
    b = values[order, 1]
    n = a.size
    group_start = np.ones(n, dtype=bool)
    group_start[1:] = a[1:] != a[:-1]
    group_id = np.cumsum(group_start) - 1
    starts = np.flatnonzero(group_start)
    cummin_b = np.minimum.accumulate(b)
    prev_min = np.full(starts.size, np.inf)
    prev_min[1:] = cummin_b[starts[1:] - 1]
    group_min_b = b[starts]
    dominated = (prev_min[group_id] <= b) | (b > group_min_b[group_id])
    keep = np.empty(n, dtype=bool)
    keep[order] = ~dominated
    return keep


def _pareto_mask_pairwise(values: np.ndarray) -> np.ndarray:
    """Non-dominated mask for any objective count via one broadcast."""
    less_eq = np.all(values[:, None, :] <= values[None, :, :], axis=2)
    strictly = np.any(values[:, None, :] < values[None, :, :], axis=2)
    dominated = np.any(less_eq & strictly, axis=0)
    return ~dominated


def pareto_frontier(
    points: Sequence[DesignPoint], objectives=("seconds", "energy_joules")
) -> List[DesignPoint]:
    """Non-dominated subset under the given minimise-objectives.

    The two-objective case (the common one) runs in O(n log n) via a sort
    and a prefix-minimum scan; other objective counts use a vectorized
    pairwise dominance check.  Points are returned in input order.
    """
    if not points:
        return []
    values = np.array(
        [[getattr(p, obj) for obj in objectives] for p in points],
        dtype=np.float64,
    )
    if values.shape[1] == 2:
        keep = _pareto_mask_sorted_2d(values)
    else:
        keep = _pareto_mask_pairwise(values)
    return [p for p, k in zip(points, keep) if k]


def sensitivity(
    workload: ModelWorkload,
    parameter,
    values,
    base_config: HardwareConfig = None,
    n_jobs: int = 1,
    evaluator=None,
) -> List[dict]:
    """One-dimensional sensitivity: latency/energy vs one parameter.

    A thin view over :func:`sweep_design_space` on the one-parameter grid
    ``{parameter: values}``, so it shares everything the sweep engine
    provides — the grid check, workload memoization, the adaptive pool
    pilot, and whole-chunk scoring (the analytical default scores the
    entire value list as one numpy batch).  Rows arrive in the order
    ``values`` were given; values whose evaluator raised are warn-dropped
    like any sweep point.
    """
    points = sweep_design_space(
        workload,
        {parameter: list(values)},
        base_config=base_config,
        n_jobs=n_jobs,
        evaluator=evaluator,
    )
    return [
        {
            parameter: p.parameter(parameter),
            "seconds": p.seconds,
            "energy_joules": p.energy_joules,
            "edp": p.edp,
        }
        for p in points
    ]
