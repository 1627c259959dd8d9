"""Fold sharded result stores back into single-process sweep output.

:func:`merge_store` reads every shard file of a store — including the
``steal-*.jsonl`` files work-stealing shards write — verifies the
partition actually covered the grid (a missing point is an error, not a
silent gap), and reconstructs the exact output of
:func:`repro.harness.dse.sweep_design_space` on the same grid: the full
:class:`~repro.harness.dse.DesignPoint` table in deterministic grid
order and its Pareto frontier, **bit for bit** — records round-trip
through JSON's shortest-repr floats, failures are dropped with the same
:class:`RuntimeWarning` the in-memory sweep emits, and frontier
construction sees points in the same (grid) order.

Work-stealing makes duplicates possible (claims are advisory), so the
merge is *duplicate-tolerant rather than exactly-once*: an index may
appear in several files as long as every copy carries the same result
(all built-in evaluators are deterministic, so honest duplicates are
bit-identical).  Conflicting copies mean a non-deterministic evaluator
or mixed studies and fail loudly.  Ownership stays checked: a shard file
may only hold its own indices, a steal file only *other* shards'
indices.

The merge is a pure fold of records: it builds no workload and touches
no evaluator, so any host that can read the store can merge it.  A
point's parameters are a pure function of its grid index, so the fold
checks each record's ``p`` against the grid and keeps only its
objectives, in float64 columns by grid slot
(:class:`~repro.harness.dse.GridPoints`), plus a state byte per slot and
the error text of failed slots: no Python object per point outlives its
line.

:func:`store_status` is the monitoring companion: per-shard completion
counts — scored vs persisted-failure records, stolen-index counts, and
an ETA over the work each shard still *owes after stealing* — without
touching any evaluator.  It streams the ledgers too, keeping per shard
only index sets, timestamp bounds and counts.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .. import obs
from ..harness.dse import (
    DesignPoint,
    GridPoints,
    PointFailure,
    _decode_grid_index,
    _drop_failure,
    pareto_frontier,
)
from .sharding import ShardSpec
from .store import (
    IncompleteStoreError,
    ResultStore,
    StoreCorruptError,
    StoreMismatchError,
    record_payload,
)

__all__ = [
    "MergeResult",
    "merge_store",
    "ShardStatus",
    "StoreStatus",
    "store_status",
]

#: A grid slot's state byte in the fold: no record yet, a scored point,
#: a persisted evaluator failure, or a record that does not decode.
_MISSING, _SCORED, _FAILED, _BAD = 0, 1, 2, 3
#: ``state.translate`` table: 1 for a scored slot, 0 for any other.
_SCORED_ONLY = bytes(int(state == _SCORED) for state in range(256))


@dataclass(frozen=True)
class MergeResult:
    """A merged study: the single-process sweep's output, reconstructed."""

    points: Sequence[DesignPoint]  # GridPoints: grid order, rebuilt on read
    frontier: Tuple[DesignPoint, ...]  # pareto_frontier(points)
    manifest: dict
    dropped: int  # failure records dropped (mirrors the sweep's warns)
    duplicates: int = 0  # redundant same-result records tolerated


def _shard_spec(manifest: dict, shard_index: int) -> ShardSpec:
    """The store's shard ``shard_index``, honouring manifest weights."""
    weights = manifest.get("weights")
    return ShardSpec(
        shard_index,
        manifest["num_shards"],
        weights=tuple(int(weight) for weight in weights) if weights else None,
    )


class _Columns:
    """A store's records decoded into per-slot columns (see :func:`_fold`).

    ``state`` holds one byte per grid slot; a scored slot's objectives
    sit in ``seconds``/``energy``/``area``, a failed slot's error text in
    ``errors``, and an undecodable record's payload and error in ``bad``.
    """

    def __init__(self, manifest: dict):
        self.grid = manifest["grid"]
        self.names = sorted(self.grid)
        self.size = manifest["grid_size"]
        self.state = bytearray(self.size)
        zeros = bytes(8 * self.size)
        self.seconds, self.energy, self.area = (array("d", zeros) for _ in range(3))
        self.errors = {}  # grid index -> error text of a failed slot
        self.bad = {}  # grid index -> (payload, StoreCorruptError)
        # Per axis, last first: the radix and values that peel a grid
        # index's digits off its little end (see _decode_grid_index).
        self._axes = [
            (axis, name, len(self.grid[name]), self.grid[name])
            for axis, name in reversed(list(enumerate(self.names)))
        ]

    def _check_parameters(self, index, pairs):
        """Raise ``ValueError`` unless ``pairs`` are grid ``index``'s
        ``[name, value]`` pairs: compared per axis, value and type."""
        if len(pairs) != len(self.names):
            raise self._mismatch(index)
        remaining = index
        for axis, name, radix, values in self._axes:
            remaining, digit = divmod(remaining, radix)
            found, value = pairs[axis]
            expected = values[digit]
            if found != name or value != expected or type(value) is not type(expected):
                raise self._mismatch(index)

    def _mismatch(self, index) -> ValueError:
        values = _decode_grid_index(self.grid, self.names, index)
        expected = [list(pair) for pair in zip(self.names, values)]
        return ValueError(f"parameters are not grid index {index}'s {expected!r}")

    def put(self, index, record):
        """Decode ``record`` into slot ``index``; a record that does not
        decode marks it ``_BAD`` with the error, raised in grid order."""
        try:
            self._check_parameters(index, record["p"])
            if "err" in record:
                self.errors[index] = str(record["err"])
                self.state[index] = _FAILED
                return
            self.seconds[index] = record["s"]
            self.energy[index] = record["e"]
            self.area[index] = record["a"]
            self.state[index] = _SCORED
        except (KeyError, TypeError, ValueError) as exc:
            error = StoreCorruptError(f"malformed completion record {record!r}: {exc}")
            self.bad[index] = (record_payload(record), error)
            self.state[index] = _BAD

    def same(self, index, record) -> bool:
        """Whether ``record`` carries the result already in slot ``index``."""
        state = self.state[index]
        if state == _BAD:
            return record_payload(record) == self.bad[index][0]
        try:
            self._check_parameters(index, record["p"])
            if "err" in record:
                return state == _FAILED and str(record["err"]) == self.errors[index]
            return (
                state == _SCORED
                and record["s"] == self.seconds[index]
                and record["e"] == self.energy[index]
                and record["a"] == self.area[index]
            )
        except (KeyError, TypeError, ValueError):
            return False

    def parameters(self, index) -> tuple:
        return tuple(zip(self.names, _decode_grid_index(self.grid, self.names, index)))

    def unscored(self):
        """``(index, state)`` of each slot not scored, in grid order."""
        states = np.frombuffer(self.state, np.uint8)
        for index in np.flatnonzero(states != _SCORED).tolist():
            yield index, self.state[index]

    def points(self) -> GridPoints:
        scored = bytes(self.state.translate(_SCORED_ONLY))
        return GridPoints(self.grid, scored, self.seconds, self.energy, self.area)


def _fold(store: ResultStore, manifest: dict) -> Tuple[_Columns, int]:
    """Decode every record into its grid slot as it is read, verified.

    Returns ``(columns, duplicates)``.  Checks the partition invariants:
    all files belong to this store's ``N``-way partition, a shard file
    holds only indices the (possibly weighted) shard owns, and a steal
    file holds only in-range indices its shard does *not* own.  Within a
    file the first record of an index wins.  An index recorded in more
    than one file is tolerated when every copy carries the same result
    (parameters, then objectives or error text; an undecodable copy
    compares by payload, timestamp aside) and counted in
    ``duplicates``; conflicting copies raise :class:`StoreCorruptError`.
    Ownership keeps shard files disjoint, so only a steal file can
    repeat an index: steal files are read first.  A record that does not
    decode (a missing key, or a ``p`` that is not its grid index's)
    waits in its slot, for the caller to raise in grid order; when a
    shard file repeats a stolen one, the shard file's copy is the one
    that reports.
    """
    num_shards = manifest["num_shards"]
    columns = _Columns(manifest)
    size = columns.size
    state = columns.state
    sources = [
        (index, count, path, True) for index, count, path in store.steal_files()
    ] + [(index, count, path, False) for index, count, path in store.shard_files()]
    # Ordinal (from 1) of the last file that recorded each slot: a repeat
    # within one file is skipped, a copy in another file is compared.
    last = array("H", bytes(2 * size))
    duplicates = 0
    for ordinal, (shard_index, shard_count, path, is_steal) in enumerate(sources, 1):
        if shard_count != num_shards:
            raise StoreMismatchError(
                f"{path.name} belongs to a /{shard_count} partition but "
                f"the store was created for /{num_shards}"
            )
        shard = _shard_spec(manifest, shard_index)
        for index, record in store.iter_records(path):
            inside = 0 <= index < size
            if is_steal and inside and shard.owns(index):
                raise StoreCorruptError(
                    f"{path.name} holds grid index {index}, which shard "
                    f"{shard_index}/{shard_count} owns outright — steal "
                    "files may only cover other shards' indices"
                )
            if is_steal and not inside:
                raise StoreCorruptError(
                    f"{path.name} holds grid index {index}, outside the "
                    f"{size}-point grid"
                )
            if not is_steal and not (inside and shard.owns(index)):
                raise StoreCorruptError(
                    f"{path.name} holds grid index {index}, which shard "
                    f"{shard_index}/{shard_count} does not own"
                )
            if last[index] == ordinal:
                continue  # a repeat within this file: the first one wins
            last[index] = ordinal
            if not state[index]:
                columns.put(index, record)
                continue
            if not columns.same(index, record):
                raise StoreCorruptError(
                    f"grid index {index} appears in multiple files with "
                    "conflicting results — the evaluator is not "
                    "deterministic, or the store mixes studies"
                )
            duplicates += 1
            if state[index] == _BAD and not is_steal:
                columns.put(index, record)
    return columns, duplicates


def merge_store(store) -> MergeResult:
    """Merge a complete sharded store into the single-process sweep result.

    A pure fold of records: each is decoded into its grid slot's columns
    as the ledgers stream past, a missing index refuses the store, then
    failures are dropped in grid order and the frontier is recomputed —
    no workload is built, no evaluator runs, and no raw record outlives
    its line.
    """
    store = ResultStore(store)
    manifest = store.read_manifest()
    with obs.span("dist_merge"):
        columns, duplicates = _fold(store, manifest)
        size = columns.size
        missing = columns.state.count(_MISSING)
        if missing:
            raise IncompleteStoreError(
                f"store holds {size - missing} of {size} grid points "
                f"({missing} missing); run the remaining shards "
                "(see `python -m repro dse-status`)"
            )
        dropped = 0
        for index, state in columns.unscored():
            if state == _BAD:
                raise columns.bad[index][1]
            failure = PointFailure(columns.parameters(index), columns.errors[index])
            _drop_failure(index, failure)
            dropped += 1
        points = columns.points()
        obs.counter("dist_merges").inc()
        if duplicates:
            obs.counter("dist_duplicates_tolerated").inc(duplicates)
        return MergeResult(
            points=points,
            frontier=tuple(pareto_frontier(points)),
            manifest=manifest,
            dropped=dropped,
            duplicates=duplicates,
        )


def scored_so_far(store) -> Tuple[GridPoints, int]:
    """A store's scored points so far and how many indices it recorded.

    The merge's fold with missing slots allowed, for a study still
    running: failures are skipped silently, and the first record that
    does not decode, in grid order, raises.
    """
    store = ResultStore(store)
    columns, _ = _fold(store, store.read_manifest())
    for index, state in columns.unscored():
        if state == _BAD:
            raise columns.bad[index][1]
    return columns.points(), columns.size - columns.state.count(_MISSING)


# ----------------------------------------------------------------------
# Status
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardStatus:
    """Progress of one shard (a shard with no file yet reads all-pending).

    ``done`` counts *owned indices recorded anywhere* — in this shard's
    own file or in another shard's steal file — because a stolen point
    is work this shard no longer owes.  ``failed`` splits out the
    persisted-failure records among them (``scored = done - failed``),
    so a shard full of deterministic evaluator failures no longer reads
    as healthy throughput.  ``stolen`` is how many of this shard's
    indices only a stealer covers; ``steals`` is how many records this
    shard stole *from others* (its own steal file).
    """

    shard: ShardSpec
    total: int
    done: int  # owned indices recorded anywhere (scored + failed)
    failed: int
    stolen: int = 0  # owned indices covered only by other shards' steal files
    steals: int = 0  # records this shard stole from other shards
    #: Seconds until this shard finishes at its observed throughput
    #: (record timestamps), ``0.0`` when complete, ``None`` when the
    #: shard has too few timestamped records to estimate a rate.
    eta_seconds: float = None
    #: Transient-failure re-evaluations recorded by this shard's files
    #: (the ``r`` keys of its own + steal records).
    retries: int = 0
    #: True when :func:`store_status` was given ``stall_after`` and this
    #: incomplete shard's newest record is older than that — the sign of
    #: a hung or dead shard process (see ``dse-status --stall-after``).
    stalled: bool = False

    @property
    def scored(self) -> int:
        return self.done - self.failed

    @property
    def pending(self) -> int:
        """Indices this shard still owes *after* stealing is netted out."""
        return self.total - self.done

    @property
    def fraction_done(self) -> float:
        return self.done / self.total if self.total else 1.0

    @property
    def fraction_scored(self) -> float:
        return self.scored / self.total if self.total else 1.0


@dataclass(frozen=True)
class StoreStatus:
    """Whole-store progress: per-shard counts plus study totals."""

    manifest: dict
    shards: Tuple[ShardStatus, ...]

    @property
    def grid_size(self) -> int:
        return self.manifest["grid_size"]

    @property
    def done(self) -> int:
        return sum(s.done for s in self.shards)

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.shards)

    @property
    def scored(self) -> int:
        return sum(s.scored for s in self.shards)

    @property
    def stolen(self) -> int:
        return sum(s.stolen for s in self.shards)

    @property
    def steals(self) -> int:
        return sum(s.steals for s in self.shards)

    @property
    def retries(self) -> int:
        return sum(s.retries for s in self.shards)

    @property
    def stalled_shards(self) -> Tuple[ShardStatus, ...]:
        return tuple(s for s in self.shards if s.stalled)

    @property
    def fraction_done(self) -> float:
        return self.done / self.grid_size if self.grid_size else 1.0

    @property
    def fraction_scored(self) -> float:
        return self.scored / self.grid_size if self.grid_size else 1.0

    @property
    def complete(self) -> bool:
        return self.done >= self.grid_size

    @property
    def eta_seconds(self):
        """Seconds until the *slowest* shard finishes (a sharded study is
        done when its last shard is), ``None`` while any running shard's
        rate is still unknown."""
        etas = [s.eta_seconds for s in self.shards]
        if any(eta is None for eta in etas):
            return None
        return max(etas, default=0.0)


def _shard_eta(count, oldest, newest, pending) -> float:
    """ETA of one shard from its completion-record timestamps.

    The observed rate is ``(count - 1) / (newest - oldest)`` over the
    ``count`` timestamped records this shard itself wrote (own file plus
    its steal file) — resume-friendly (gaps between runs flatten the rate
    estimate rather than breaking it) and free of any
    clock-synchronisation assumption across hosts, since only one host's
    timestamps are ever compared.  ``pending`` is the work owed *after*
    stealing, so a straggler whose slice is being drained by the fleet
    sees its ETA fall accordingly.  Returns ``0.0`` for a complete shard
    and ``None`` below two distinct timestamps (no rate observable yet).
    """
    if pending <= 0:
        return 0.0
    if count < 2 or newest <= oldest:
        return None
    rate = (count - 1) / (newest - oldest)
    return pending / rate


@dataclass(frozen=True)
class _LedgerTally:
    """What :func:`store_status` keeps of one ledger once it is read."""

    indices: set  # distinct grid indices
    stamps: int  # timestamped records
    oldest: float  # inf without a timestamp
    newest: float  # -inf without a timestamp
    retries: int


def _tally_ledger(store: ResultStore, path, covered: bytearray) -> _LedgerTally:
    """Stream one ledger into ``covered`` and its own tally.

    ``covered[i]`` keeps what the first record of in-range index ``i``,
    over all ledgers in the order they are tallied, says: ``1`` scored,
    ``2`` failed.  Within the file the first record of an index counts,
    for the timestamps and retries too.
    """
    indices = set()
    stamps = retries = 0
    oldest, newest = math.inf, -math.inf
    for index, record in store.iter_records(path):
        if index in indices:
            continue
        indices.add(index)
        if 0 <= index < len(covered) and not covered[index]:
            covered[index] = 2 if "err" in record else 1
        if "t" in record:
            stamp = float(record["t"])
            stamps += 1
            oldest = min(oldest, stamp)
            newest = max(newest, stamp)
        retries += int(record.get("r", 0))
    return _LedgerTally(indices, stamps, oldest, newest, retries)


def store_status(store, stall_after=None) -> StoreStatus:
    """Inspect a store's progress without evaluating anything.

    Besides per-shard completion counts (see :class:`ShardStatus` for
    the stolen/steals accounting), each shard carries an ``eta_seconds``
    derived from its completion-record timestamps (see
    :func:`_shard_eta`); stores written before records carried
    timestamps simply report ``None``.

    ``stall_after`` (seconds) arms stall detection: an *incomplete* shard
    whose newest record — in its own file or its steal file — is older
    than the threshold (or that never wrote a record at all) is flagged
    ``stalled``, the operator's cue that the process is hung or dead and
    a supervisor/steal pass should absorb its slice.

    A fold: the ledgers stream past once — shard files first, then steal
    files, so an index counts as failed when the first file to cover it
    says so — and no record outlives its line.
    """
    store = ResultStore(store)
    manifest = store.read_manifest()
    size = manifest["grid_size"]
    shards = [
        _shard_spec(manifest, k) for k in range(1, manifest["num_shards"] + 1)
    ]
    covered = bytearray(size)
    own = [_tally_ledger(store, store.shard_path(s), covered) for s in shards]
    steal = [_tally_ledger(store, store.steal_path(s), covered) for s in shards]
    statuses = []
    for shard, mine, theirs in zip(shards, own, steal):
        total = done = failed = stolen = 0
        for index in shard.indices(size):
            total += 1
            if covered[index]:
                done += 1
                failed += covered[index] == 2
                stolen += index not in mine.indices
        stamps = mine.stamps + theirs.stamps
        oldest = min(mine.oldest, theirs.oldest)
        newest = max(mine.newest, theirs.newest)
        pending = total - done
        stalled = (
            stall_after is not None
            and pending > 0
            and (not stamps or time.time() - newest > stall_after)
        )
        statuses.append(
            ShardStatus(
                shard=shard,
                total=total,
                done=done,
                failed=failed,
                stolen=stolen,
                steals=len(theirs.indices),
                eta_seconds=_shard_eta(stamps, oldest, newest, pending),
                retries=mine.retries + theirs.retries,
                stalled=stalled,
            )
        )
    return StoreStatus(manifest=manifest, shards=tuple(statuses))
