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

Hybrid studies shard their cheap *coarse* phase; the expensive fine
re-score of the surviving frontier happens here, on the merge host, in
this one process (through the fine evaluator's batch route, not a pool),
with the same resume machinery shards use (survivor records accumulate in
``fine-rescore.jsonl``, so an interrupted merge re-scores only missing
survivors).

:func:`store_status` is the monitoring companion: per-shard completion
counts — scored vs persisted-failure records, stolen-index counts, and
an ETA over the work each shard still *owes after stealing* — without
touching any evaluator.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Tuple

from .. import obs
from ..harness.dse import (
    DesignPoint,
    PointFailure,
    _hybrid_survivors,
    iter_indexed_design_points,
    pareto_frontier,
)
from ..ledger import JsonlAppender
from ..sim.evaluator import HybridEvaluator, evaluator_from_spec, resolve_evaluator
from .runner import workload_fingerprint, workload_from_spec
from .sharding import ShardSpec
from .store import (
    FINE_NAME,
    IncompleteStoreError,
    ResultStore,
    StoreCorruptError,
    StoreMismatchError,
    config_from_dict,
    decode_record,
    encode_record,
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
        stacklevel=3,
    )


def _shard_spec(manifest: dict, shard_index: int) -> ShardSpec:
    """The store's shard ``shard_index``, honouring manifest weights."""
    weights = manifest.get("weights")
    return ShardSpec(
        shard_index,
        manifest["num_shards"],
        weights=tuple(int(weight) for weight in weights) if weights else None,
    )


def _load_merged_records(store: ResultStore, manifest: dict):
    """Every shard's records as one ``index -> record`` map, verified.

    Returns ``(records, duplicates)``.  Checks the partition invariants:
    all files belong to this store's ``N``-way partition, a shard file
    holds only indices the (possibly weighted) shard owns, a steal file
    holds only in-range indices its shard does *not* own, and no index
    is missing.  An index recorded more than once is tolerated when
    every copy has the same payload (timestamp aside) and counted in
    ``duplicates``; conflicting copies raise :class:`StoreCorruptError`.
    """
    num_shards = manifest["num_shards"]
    size = manifest["grid_size"]
    records: dict = {}
    duplicates = 0
    sources = [
        (index, count, path, False) for index, count, path in store.shard_files()
    ] + [(index, count, path, True) for index, count, path in store.steal_files()]
    for shard_index, shard_count, path, is_steal in sources:
        if shard_count != num_shards:
            raise StoreMismatchError(
                f"{path.name} belongs to a /{shard_count} partition but "
                f"the store was created for /{num_shards}"
            )
        owned = set(_shard_spec(manifest, shard_index).indices(size))
        for index, record in store.load_records(path).items():
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
            if index in records:
                if record_payload(records[index]) == record_payload(record):
                    duplicates += 1
                    continue
                raise StoreCorruptError(
                    f"grid index {index} appears in multiple files with "
                    "conflicting results — the evaluator is not "
                    "deterministic, or the store mixes studies"
                )
            records[index] = record
    if len(records) < size:
        missing = size - len(records)
        raise IncompleteStoreError(
            f"store holds {len(records)} of {size} grid points "
            f"({missing} missing); run the remaining shards "
            "(see `python -m repro dse-status`)"
        )
    return records, duplicates


def merge_store(store, workload=None, evaluator=None) -> MergeResult:
    """Merge a complete sharded store into the single-process sweep result.

    For analytical/cycle studies this touches no evaluator: records are
    decoded in grid order and the frontier recomputed.  For hybrid
    studies the store holds the sharded *coarse* scores; the global
    coarse frontier is pruned here and its survivors re-scored with the
    fine evaluator (resumable via ``fine-rescore.jsonl``), reproducing
    ``sweep_design_space(..., evaluator="hybrid")`` exactly.

    ``workload`` / ``evaluator`` are only needed for hybrid studies, and
    only when the manifest cannot supply them (an opaque workload spec, a
    custom evaluator); built-in setups reconstruct both from the
    manifest.  The merge runs in this process: survivors are re-scored
    serially, in chunks.
    """
    store = ResultStore(store)
    manifest = store.read_manifest()
    with obs.span("dist_merge"):
        return _merge_loaded(store, manifest, workload, evaluator)


def _merge_loaded(store, manifest, workload, evaluator) -> MergeResult:
    records, duplicates = _load_merged_records(store, manifest)

    pairs = []  # (grid_index, DesignPoint) with failures dropped
    dropped = 0
    for index in range(manifest["grid_size"]):
        record_index, result = decode_record(records[index])
        if record_index != index:
            raise StoreCorruptError(f"record indexed {index} decodes to {record_index}")
        if isinstance(result, PointFailure):
            _drop_failure(index, result)
            dropped += 1
            continue
        pairs.append((index, result))

    if manifest["evaluator"].get("name") == "hybrid":
        points, fine_dropped = _fine_rescore(
            store, manifest, pairs, workload, evaluator
        )
        dropped += fine_dropped
    else:
        points = [point for _, point in pairs]
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


def _fine_rescore(store, manifest, pairs, workload, evaluator):
    """Hybrid phase 2 on the merge host: re-score the coarse frontier.

    Survivor selection is the shared
    :func:`repro.harness.dse._hybrid_survivors` rule —
    :func:`~repro.harness.dse.pareto_frontier` of the merged coarse
    scores in grid order (the non-dominated set of a multiset does not
    depend on the order shards scored it in).  Fine scores append to the
    store like any shard file, so an interrupted merge resumes.
    """
    if evaluator is None:
        # Strip any fault plan the study ran under: the merge host
        # re-scores survivors healthily, which is exactly the chaos
        # invariant (a faulty study merges bit-identical to the healthy
        # serial sweep).
        spec = {
            key: value
            for key, value in manifest["evaluator"].items()
            if key != "faults"
        }
        evaluator = evaluator_from_spec(spec)
    else:
        evaluator = resolve_evaluator(evaluator)
    if not isinstance(evaluator, HybridEvaluator):
        raise ValueError(
            "merging a hybrid store needs a HybridEvaluator "
            f"(got {type(evaluator)!r})"
        )
    workload_spec = manifest.get("workload") or {}
    if workload is None:
        workload = workload_from_spec(workload_spec)
    expected = workload_spec.get("fingerprint")
    if expected is not None and workload_fingerprint(workload) != expected:
        raise StoreMismatchError(
            "the workload passed to merge_store does not match the "
            "structure fingerprint the store's shards were run against"
        )
    base_config = config_from_dict(manifest["base_config"])
    grid = {name: tuple(values) for name, values in manifest["grid"].items()}

    survivors = [index for index, _ in _hybrid_survivors(pairs)]

    done = store.load_records(store.fine_path)
    todo = [index for index in survivors if index not in done]
    if todo:
        with JsonlAppender(store.fine_path) as out:
            for index, result in iter_indexed_design_points(
                workload,
                grid,
                todo,
                base_config=base_config,
                evaluator=evaluator.fine,
                keep_failures=True,
            ):
                out.append(encode_record(index, result))
        done = store.load_records(store.fine_path)

    points = []
    dropped = 0
    for index in survivors:
        if index not in done:
            raise IncompleteStoreError(
                f"{FINE_NAME} is missing survivor {index} after re-score"
            )
        _, result = decode_record(done[index])
        if isinstance(result, PointFailure):
            _drop_failure(index, result)
            dropped += 1
            continue
        points.append(result)
    return points, dropped


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

    @property
    def complete(self) -> bool:
        return self.done >= self.total


@dataclass(frozen=True)
class StoreStatus:
    """Whole-store progress: per-shard counts plus study totals."""

    manifest: dict
    shards: Tuple[ShardStatus, ...]
    fine_records: int  # hybrid re-score progress (0 for plain studies)

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


def _shard_eta(stamps, pending) -> float:
    """ETA of one shard from its completion-record timestamps.

    The observed rate is ``(stamps - 1) / (newest - oldest)`` over the
    records this shard itself wrote (own file plus its steal file) —
    resume-friendly (gaps between runs flatten the rate estimate rather
    than breaking it) and free of any clock-synchronisation assumption
    across hosts, since only one host's timestamps are ever compared.
    ``pending`` is the work owed *after* stealing, so a straggler whose
    slice is being drained by the fleet sees its ETA fall accordingly.
    Returns ``0.0`` for a complete shard and ``None`` below two distinct
    timestamps (no rate observable yet).
    """
    if pending <= 0:
        return 0.0
    stamps = sorted(stamps)
    if len(stamps) < 2 or stamps[-1] <= stamps[0]:
        return None
    rate = (len(stamps) - 1) / (stamps[-1] - stamps[0])
    return pending / rate


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
    """
    store = ResultStore(store)
    manifest = store.read_manifest()
    size = manifest["grid_size"]
    num_shards = manifest["num_shards"]
    own_records = {}
    steal_records = {}
    for k in range(1, num_shards + 1):
        shard = _shard_spec(manifest, k)
        own_records[k] = store.load_records(store.shard_path(shard))
        steal_records[k] = store.load_records(store.steal_path(shard))
    covered: dict = {}
    for records in list(own_records.values()) + list(steal_records.values()):
        for index, record in records.items():
            covered.setdefault(index, record)
    statuses = []
    for k in range(1, num_shards + 1):
        shard = _shard_spec(manifest, k)
        owned = set(shard.indices(size))
        done_records = {
            index: record for index, record in covered.items() if index in owned
        }
        done = len(done_records)
        stamps = [
            float(record["t"])
            for records in (own_records[k], steal_records[k])
            for record in records.values()
            if "t" in record
        ]
        pending = len(owned) - done
        stalled = (
            stall_after is not None
            and pending > 0
            and (not stamps or time.time() - max(stamps) > stall_after)
        )
        status = ShardStatus(
            shard=shard,
            total=len(owned),
            done=done,
            failed=sum(1 for record in done_records.values() if "err" in record),
            stolen=sum(1 for index in done_records if index not in own_records[k]),
            steals=len(steal_records[k]),
            eta_seconds=_shard_eta(stamps, pending),
            retries=sum(
                int(record.get("r", 0))
                for records in (own_records[k], steal_records[k])
                for record in records.values()
            ),
            stalled=stalled,
        )
        statuses.append(status)
    fine = len(store.load_records(store.fine_path))
    return StoreStatus(manifest=manifest, shards=tuple(statuses), fine_records=fine)
