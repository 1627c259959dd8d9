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
appear in several files as long as every copy carries the same payload
(the record minus its wall-clock timestamp — all built-in evaluators are
deterministic, so honest duplicates are bit-identical).  Conflicting
copies mean a non-deterministic evaluator or mixed studies and fail
loudly.  Ownership stays checked: a shard file may only hold its own
indices, a steal file only *other* shards' indices.

The merge is a pure fold of records: it builds no workload and touches
no evaluator, so any host that can read the store can merge it.  It
streams the ledgers line by line and decodes each record into its grid
slot, so its memory follows the number of points, not of records.

:func:`store_status` is the monitoring companion: per-shard completion
counts — scored vs persisted-failure records, stolen-index counts, and
an ETA over the work each shard still *owes after stealing* — without
touching any evaluator.  It streams the ledgers too, keeping per shard
only index sets, timestamp bounds and counts.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Tuple

from .. import obs
from ..harness.dse import DesignPoint, PointFailure, pareto_frontier
from .sharding import ShardSpec
from .store import (
    IncompleteStoreError,
    ResultStore,
    StoreCorruptError,
    StoreMismatchError,
    decode_record,
    record_payload,
)

__all__ = [
    "MergeResult",
    "merge_store",
    "ShardStatus",
    "StoreStatus",
    "store_status",
]

_log = obs.get_logger("dist.merge")


@dataclass(frozen=True)
class MergeResult:
    """A merged study: the single-process sweep's output, reconstructed."""

    points: Tuple[DesignPoint, ...]  # deterministic grid order
    frontier: Tuple[DesignPoint, ...]  # pareto_frontier(points)
    manifest: dict
    dropped: int  # failure records dropped (mirrors the sweep's warns)
    duplicates: int = 0  # redundant payload-identical records tolerated


def _drop_failure(index, failure: PointFailure):
    """Mirror :func:`repro.harness.dse._filter_failures`' warning."""
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


def _shard_spec(manifest: dict, shard_index: int) -> ShardSpec:
    """The store's shard ``shard_index``, honouring manifest weights."""
    weights = manifest.get("weights")
    return ShardSpec(
        shard_index,
        manifest["num_shards"],
        weights=tuple(int(weight) for weight in weights) if weights else None,
    )


def _fold_records(store: ResultStore, manifest: dict):
    """Decode every record into its grid slot as it is read, verified.

    Returns ``(slots, duplicates)``: ``slots[i]`` holds grid index
    ``i``'s decoded result (or the :class:`StoreCorruptError` of a record
    that does not decode, for the caller to raise in grid order).  Checks
    the partition invariants: all files belong to this store's ``N``-way
    partition, a shard file holds only indices the (possibly weighted)
    shard owns, a steal file holds only in-range indices its shard does
    *not* own, and no index is missing.  Within a file the first record
    of an index wins.  An index recorded in more than one file is tolerated
    when every copy has the same payload (timestamp aside) and counted
    in ``duplicates``; conflicting copies raise
    :class:`StoreCorruptError`.  Ownership keeps shard files disjoint, so
    only a steal file can repeat an index: steal files are read first,
    and only their payloads are kept, to check the copies read after.
    """
    num_shards = manifest["num_shards"]
    size = manifest["grid_size"]
    sources = [
        (index, count, path, True) for index, count, path in store.steal_files()
    ] + [(index, count, path, False) for index, count, path in store.shard_files()]
    stolen = {}  # index -> (payload, result) of its first steal-file copy
    slots = [None] * size
    duplicates = 0
    for shard_index, shard_count, path, is_steal in sources:
        if shard_count != num_shards:
            raise StoreMismatchError(
                f"{path.name} belongs to a /{shard_count} partition but "
                f"the store was created for /{num_shards}"
            )
        owned = set(_shard_spec(manifest, shard_index).indices(size))
        seen = set()  # this steal file's indices so far
        for index, record in store.iter_records(path):
            if is_steal and index in owned:
                raise StoreCorruptError(
                    f"{path.name} holds grid index {index}, which shard "
                    f"{shard_index}/{shard_count} owns outright — steal "
                    "files may only cover other shards' indices"
                )
            if is_steal and not 0 <= index < size:
                raise StoreCorruptError(
                    f"{path.name} holds grid index {index}, outside the "
                    f"{size}-point grid"
                )
            if not is_steal and index not in owned:
                raise StoreCorruptError(
                    f"{path.name} holds grid index {index}, which shard "
                    f"{shard_index}/{shard_count} does not own"
                )
            if index in seen or slots[index] is not None:
                continue  # a repeat within this file: the first one wins
            if index in stolen:
                if stolen[index][0] != record_payload(record):
                    raise StoreCorruptError(
                        f"grid index {index} appears in multiple files with "
                        "conflicting results — the evaluator is not "
                        "deterministic, or the store mixes studies"
                    )
                duplicates += 1
            if is_steal:
                seen.add(index)
                stolen.setdefault(index, (record_payload(record), _decoded(record)))
            else:
                slots[index] = _decoded(record)
    for index, (_, result) in stolen.items():
        if slots[index] is None:
            slots[index] = result
    missing = slots.count(None)
    if missing:
        raise IncompleteStoreError(
            f"store holds {size - missing} of {size} grid points "
            f"({missing} missing); run the remaining shards "
            "(see `python -m repro dse-status`)"
        )
    return slots, duplicates


def _decoded(record):
    """A record's result, or the error that decoding it raised."""
    try:
        return decode_record(record)[1]
    except StoreCorruptError as exc:
        return exc


def merge_store(store) -> MergeResult:
    """Merge a complete sharded store into the single-process sweep result.

    A pure fold of records: each is decoded into its grid slot as the
    ledgers stream past, failures are dropped in grid order, and the
    frontier recomputed — no workload is built, no evaluator runs and no
    raw record outlives its line.
    """
    store = ResultStore(store)
    manifest = store.read_manifest()
    with obs.span("dist_merge"):
        slots, duplicates = _fold_records(store, manifest)
        points = []  # grid order, failures dropped
        dropped = 0
        for index, result in enumerate(slots):
            if isinstance(result, StoreCorruptError):
                raise result
            if isinstance(result, PointFailure):
                _drop_failure(index, result)
                dropped += 1
                continue
            points.append(result)
        obs.counter("dist_merges").inc()
        if duplicates:
            obs.counter("dist_duplicates_tolerated").inc(duplicates)
        return MergeResult(
            points=tuple(points),
            frontier=tuple(pareto_frontier(points)),
            manifest=manifest,
            dropped=dropped,
            duplicates=duplicates,
        )


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
