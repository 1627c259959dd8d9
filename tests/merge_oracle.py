"""The dict-of-``DesignPoint`` merge: the oracle for ``merge_store``'s fold.

:func:`repro.dist.merge_store` folds each record's objectives into
float64 columns by grid slot and rebuilds every
:class:`~repro.harness.dse.DesignPoint` from its grid index when it is
read.  This module keeps the fold it replaced: each record decoded into
a ``DesignPoint`` (or ``PointFailure``) with the record's own ``p`` as
its parameters, held in a list of grid slots; steal files first, with a
payload dict per stolen index to check the copies read after.  The two
must agree on the points, the frontier, ``dropped``, ``duplicates``,
the order of the drop warnings and each refusal's exception class and
message, on every store whose records carry their grid index's
parameters (this fold never checks ``p``).  A plain module (not a
conftest) so checks outside tier-1 can import it with this directory on
``sys.path``.
"""

import sys
import warnings

from repro.dist import (
    IncompleteStoreError,
    MergeResult,
    ResultStore,
    StoreCorruptError,
    StoreMismatchError,
)
from repro.dist.merge import _shard_spec
from repro.dist.store import record_payload
from repro.harness.dse import DesignPoint, PointFailure, pareto_frontier

__all__ = ["decode_record", "dict_merge_store"]


def decode_record(record: dict):
    """A completion record as ``(index, DesignPoint|PointFailure)``."""
    try:
        index = int(record["i"])
        # One shared string per knob name, not one per record.
        parameters = tuple(
            (sys.intern(str(name)), value) for name, value in record["p"]
        )
        if "err" in record:
            return index, PointFailure(parameters=parameters, error=str(record["err"]))
        return index, DesignPoint(
            parameters=parameters,
            seconds=record["s"],
            energy_joules=record["e"],
            area_proxy=record["a"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreCorruptError(
            f"malformed completion record {record!r}: {exc}"
        ) from None


def _decoded(record):
    """A record's result, or the error that decoding it raised."""
    try:
        return decode_record(record)[1]
    except StoreCorruptError as exc:
        return exc


def _fold_records(store, manifest):
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


def dict_merge_store(store) -> MergeResult:
    """The merged study, as the dict fold computes it."""
    store = ResultStore(store)
    manifest = store.read_manifest()
    slots, duplicates = _fold_records(store, manifest)
    points = []
    dropped = 0
    for index, result in enumerate(slots):
        if isinstance(result, StoreCorruptError):
            raise result
        if isinstance(result, PointFailure):
            warnings.warn(
                f"DSE point {index} {dict(result.parameters)!r} dropped: "
                f"evaluator raised {result.error}",
                RuntimeWarning,
                stacklevel=2,
            )
            dropped += 1
            continue
        points.append(result)
    return MergeResult(
        points=tuple(points),
        frontier=tuple(pareto_frontier(points)),
        manifest=manifest,
        dropped=dropped,
        duplicates=duplicates,
    )
