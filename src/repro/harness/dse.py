"""Design-space exploration (DSE) over ViTCoD accelerator configurations.

The paper motivates its design-point choices (512 MACs, 76.8 GB/s, 320 KB
SRAM, 0.5 AE compression) qualitatively; this module makes the trade-offs
measurable: sweep any subset of {MAC lines, bandwidth, buffer size, AE
compression, forwarding hit rate} over a workload, collect latency/energy,
and extract the Pareto frontier.

Every grid enters through :func:`check_grid`, which checks each swept
knob's values against the knob's domain once, before any store or job
exists; :func:`~repro.sim.evaluator.check_swept_knobs` then refuses a
knob the evaluator does not model.  All evaluation then goes through ONE
chunked engine (:func:`_stream_evaluations`), which scores chunks in
order in this process, under two drivers:

* :func:`sweep_design_space`, THE in-memory sweep: it scores the grid
  cross-product and returns the points in deterministic grid order;
* :func:`iter_indexed_design_points`, the shard surface: it streams the
  points of any subset of grid indices, lazily.

:func:`pareto_frontier` is THE non-dominated-set rule: every result's
frontier comes from it.  A merged study keeps its points as columns
(:class:`GridPoints`), since a point's parameters are a pure function of
its grid index.

*What* scores a point is pluggable (:mod:`repro.sim.evaluator`):
``"analytical"`` (the default closed-form model), ``"cycle"`` (the
event-driven simulator), any :class:`~repro.sim.evaluator.Evaluator`,
or a per-point callable.  Every
chunk of grid points is one ``evaluate_batch`` call with one result or
one failure per row: a failed row is dropped with a
:class:`RuntimeWarning`, a call that raises fails every row of its
chunk, and an :class:`~repro.sim.evaluator.UnsupportedParameterError`
propagates.  ``chunksize`` (CLI: ``--batch-size``) bounds the chunk;
results are bit-for-bit the same for any chunk size.

A sweep scores in one process.  A study scales out by sharding
(:mod:`repro.dist`): ``dse-fleet --num-shards N`` forks N shard
processes, or ``dse-shard`` runs them on more hosts.

The deterministic grid index is also a *partition key*
(:func:`grid_size` / :func:`iter_indexed_design_points`): :mod:`repro.dist`
shards disjoint index subsets across hosts, and a merge reproduces the
single-process sweep bit for bit.
"""

from __future__ import annotations

import collections.abc
import operator
import warnings
from dataclasses import dataclass
from itertools import islice, product
from typing import Dict, Iterable, Iterator, List, Sequence

import numpy as np

from .. import obs
from ..faults.errors import TransientError
from ..hw.params import VITCOD_DEFAULT, HardwareConfig
from ..hw.workload import ModelWorkload
from ..sim.evaluator import (
    UnsupportedParameterError,
    check_dse_values,
    check_swept_knobs,
    resolve_evaluator,
)

__all__ = [
    "DesignPoint",
    "GridPoints",
    "PointFailure",
    "check_grid",
    "grid_size",
    "iter_indexed_design_points",
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

    The in-memory sweep drops failures with a :class:`RuntimeWarning`; the
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


class GridPoints(collections.abc.Sequence):
    """A grid's scored points, kept as float64 columns by grid slot.

    A point's parameters are a pure function of its grid index, so only
    its objectives are stored: ``seconds``, ``energy_joules`` and
    ``area_proxy`` each hold one float per grid slot (``array('d')``), and
    ``scored`` one byte per slot, nonzero where the slot holds a scored
    point.  Each :class:`DesignPoint` is rebuilt when it is read, in grid
    order with unscored slots skipped, and equals the one the sweep made
    field for field (:func:`repro.dist.merge_store` builds these; compare
    ``list(points)``, as the sequence itself has no ``==``).  ``grid``
    maps each knob to its values, as a checked grid or a store manifest
    holds it.
    """

    def __init__(self, grid, scored, seconds, energy_joules, area_proxy):
        self._grid = grid
        self._names = sorted(grid)
        # One shared (name, value) pair per grid value: a point's
        # parameters are a tuple of these, as ``product`` yields them.
        self._axes = [[(name, value) for value in grid[name]] for name in self._names]
        self._scored = scored
        self._columns = {
            "seconds": seconds,
            "energy_joules": energy_joules,
            "area_proxy": area_proxy,
        }
        self._length = len(scored) - scored.count(0)
        self._positions = None  # grid index per position, on first indexing

    def __len__(self):
        return self._length

    def _slots(self):
        return zip(product(*self._axes), self._scored, *self._columns.values())

    def indexed(self):
        """Each scored ``(grid index, DesignPoint)``, in grid order."""
        for index, (parameters, scored, *objectives) in enumerate(self._slots()):
            if scored:
                yield index, DesignPoint(parameters, *objectives)

    def __iter__(self):  # indexed() without the index: a render's hot loop
        for parameters, scored, seconds, energy, area in self._slots():
            if scored:
                yield DesignPoint(parameters, seconds, energy, area)

    def __getitem__(self, position):
        position = operator.index(position)
        if position < 0:
            position += self._length
        if not 0 <= position < self._length:
            raise IndexError("GridPoints index out of range")
        if self._positions is None:
            self._positions = np.flatnonzero(np.frombuffer(self._scored, np.uint8))
        index = int(self._positions[position])
        values = _decode_grid_index(self._grid, self._names, index)
        return DesignPoint(
            tuple(zip(self._names, values)),
            *(column[index] for column in self._columns.values()),
        )

    def column(self, name) -> np.ndarray:
        """One float64 value of field ``name`` per point, in grid order."""
        if name not in self._columns:
            return np.fromiter(
                (getattr(point, name) for point in self), np.float64, self._length
            )
        scored = np.frombuffer(self._scored, np.uint8).astype(bool)
        return np.frombuffer(self._columns[name], np.float64)[scored]


def _evaluate_chunk(workload, base_config, names, chunk, evaluator):
    """Score ``(grid_index, values)`` pairs with one ``evaluate_batch`` call.

    Each row's entry becomes a :class:`DesignPoint` (area proxy: swept
    MAC lines times the base config's per-line width) or, when it is an
    exception, a :class:`PointFailure` carrying ``"<Type>: <message>"``;
    an exception raised out of the call fails every row.
    :class:`~repro.sim.evaluator.UnsupportedParameterError` propagates
    either way: a structurally invalid sweep, not a per-point failure.
    """
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


def check_grid(grid) -> Dict[str, tuple]:
    """Materialise a grid's values as tuples and check every knob's domain.

    THE grid check, run wherever a grid enters — the in-memory sweep,
    :func:`repro.dist.run_shard`, the CLI's ``--grid`` and the serve
    layer's ``POST /jobs`` — before any store, shard process or job
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


def _decode_grid_index(grid, names, index):
    """Decode one grid index into its value tuple (``names`` order).

    The index is the point's position in the deterministic sweep order —
    ``enumerate(product(*(grid[n] for n in sorted(grid))))`` — decoded in
    O(#parameters) by mixed-radix arithmetic, so shards of a huge grid can
    materialise exactly their own points without walking the cross-product.
    ``grid`` is already checked and ``names`` is ``sorted(grid)``.
    """
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
#: temporaries and keep streams/stores responsive.
_BATCH_CHUNK = 1024


def _note_chunk(pairs):
    """Count one scored chunk's results into the telemetry registry.

    A disabled registry — the default — costs one attribute check.
    """
    registry = obs.get_registry()
    if not registry.enabled:
        return
    failed = sum(1 for _, point in pairs if isinstance(point, PointFailure))
    registry.counter("dse_chunks_dispatched").inc()
    if len(pairs) > failed:
        registry.counter("dse_points_scored").inc(len(pairs) - failed)


def _drop_failure(index, failure: PointFailure):
    """Log, count and warn that failed grid point ``index`` is left out:
    the one drop of the in-memory sweep and of the merge."""
    _log.warning(
        "DSE point %d %r dropped: evaluator raised %s",
        index,
        dict(failure.parameters),
        failure.error,
    )
    obs.counter("dse_points_failed").inc()
    warnings.warn(
        f"DSE point {index} {dict(failure.parameters)!r} dropped: "
        f"evaluator raised {failure.error}",
        RuntimeWarning,
        stacklevel=2,
    )


def _filter_failures(pairs):
    """Pass ``(index, DesignPoint)`` pairs through; warn-and-drop failures."""
    for index, point in pairs:
        if isinstance(point, PointFailure):
            _drop_failure(index, point)
            continue
        yield index, point


def _stream_evaluations(
    workload,
    base_config,
    names,
    indexed,
    chunksize,
    evaluator,
    keep_failures=False,
) -> Iterator[tuple]:
    """Evaluate ``(grid_index, values)`` pairs, yielding scored points.

    The engine under both drivers (the sweep and the shard stream):
    every chunk of ``chunksize or`` :data:`_BATCH_CHUNK` points is one
    :func:`_evaluate_chunk` call, in the order given.  Laziness is per
    chunk: an early-stopping consumer evaluates at most one chunk beyond
    what it takes.  ``keep_failures=True`` yields :class:`PointFailure`
    results instead of warn-dropping them (the sharded runners persist
    them as completion records).
    """
    sieve = (lambda pairs: pairs) if keep_failures else _filter_failures
    for chunk in _chunked(indexed, chunksize or _BATCH_CHUNK):
        with obs.span("dse_chunk"):
            scored = _evaluate_chunk(workload, base_config, names, chunk, evaluator)
        _note_chunk(scored)
        yield from sieve(scored)


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
    """
    grid = check_grid(grid)
    names = sorted(grid)
    evaluator = resolve_evaluator(evaluator)
    check_swept_knobs(evaluator, names)
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
        chunksize,
        evaluator,
        keep_failures=keep_failures,
    )


def sweep_design_space(
    workload: ModelWorkload,
    grid: Dict[str, Sequence],
    base_config: HardwareConfig = None,
    evaluator=None,
    chunksize: int = None,
) -> List[DesignPoint]:
    """Evaluate the cross product of ``grid`` on ``workload``.

    THE in-memory sweep: one in-order pass of the chunk engine in this
    process, returning the points in grid order.  ``evaluator`` selects
    the scoring strategy (``"analytical"`` default, ``"cycle"`` or an
    :class:`~repro.sim.evaluator.Evaluator`); ``chunksize`` (CLI:
    ``--batch-size``) bounds the points per ``evaluate_batch`` call and
    never changes the result.  Points whose evaluator raised are dropped
    (with a :class:`RuntimeWarning`), so the result can be shorter than
    the grid.  To spread a study over processes or hosts, shard it
    (:mod:`repro.dist`).

    Example
    -------
    >>> grid = {"mac_lines": [32, 64, 128], "ae_compression": [None, 0.5]}
    >>> points = sweep_design_space(workload, grid, evaluator="cycle")
    """
    grid = check_grid(grid)
    evaluator = resolve_evaluator(evaluator)
    names = sorted(grid)
    check_swept_knobs(evaluator, names)
    combos = list(product(*(grid[n] for n in names)))
    with obs.span("dse_sweep", points=len(combos)):
        return [
            point
            for _, point in _stream_evaluations(
                workload,
                base_config or VITCOD_DEFAULT,
                names,
                enumerate(combos),
                chunksize,
                evaluator,
            )
        ]


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
    # NaN compares False, so nothing dominates the first group — an
    # +inf sentinel would drop its points whose ``b`` is +inf.
    prev_min = np.full(starts.size, np.nan)
    prev_min[1:] = cummin_b[starts[1:] - 1]
    group_min_b = b[starts]
    dominated = (prev_min[group_id] <= b) | (b > group_min_b[group_id])
    keep = np.empty(n, dtype=bool)
    keep[order] = ~dominated
    return keep


def pareto_frontier(
    points: Sequence[DesignPoint], objectives=("seconds", "energy_joules")
) -> List[DesignPoint]:
    """Non-dominated subset under two minimise-objectives.

    Runs in O(n log n) via a sort and a prefix-minimum scan.  Points are
    returned in input order.  :class:`GridPoints` give their objective
    columns as they are, without rebuilding a point.
    """
    if len(objectives) != 2:
        raise ValueError(
            f"pareto_frontier takes two objectives, got {tuple(objectives)!r}"
        )
    if not points:
        return []
    if isinstance(points, GridPoints):
        values = np.column_stack([points.column(name) for name in objectives])
    else:
        values = np.array(
            [[getattr(p, obj) for obj in objectives] for p in points],
            dtype=np.float64,
        )
    keep = _pareto_mask_sorted_2d(values)
    return [points[i] for i in np.flatnonzero(keep)]


def sensitivity(
    workload: ModelWorkload,
    parameter,
    values,
    base_config: HardwareConfig = None,
    evaluator=None,
) -> List[dict]:
    """One-dimensional sensitivity: latency/energy vs one parameter.

    A thin view over :func:`sweep_design_space` on the one-parameter grid
    ``{parameter: values}``, so it shares everything the sweep engine
    provides — the grid check and whole-chunk scoring (the analytical
    default scores the entire value list as one numpy batch).  Rows
    arrive in the order
    ``values`` were given; values whose evaluator raised are warn-dropped
    like any sweep point.
    """
    points = sweep_design_space(
        workload,
        {parameter: list(values)},
        base_config=base_config,
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
