"""The dict-based store status: the oracle for ``store_status``'s fold.

:func:`repro.dist.merge.store_status` streams every ledger once and keeps
per shard only index sets, timestamp bounds and counts.  This module
keeps the version it replaced, which indexed every shard and steal file
into an index -> record dict (first record per index within a file),
then built a ``covered`` dict over own files 1..N followed by steal
files 1..N, and per-shard dicts of the covered records.  The fold must
return an equal :class:`~repro.dist.StoreStatus` on every store, every
:class:`~repro.dist.ShardStatus` field included.  A plain module (not a
conftest) so checks outside tier-1 can import it with this directory on
``sys.path``.
"""

import time

from repro.dist import ResultStore, ShardStatus, StoreStatus
from repro.dist.merge import _shard_spec

__all__ = ["dict_store_status"]


def _load_records(store, path):
    records = {}
    for index, record in store.iter_records(path):
        records.setdefault(index, record)
    return records


def _shard_eta(stamps, pending):
    if pending <= 0:
        return 0.0
    stamps = sorted(stamps)
    if len(stamps) < 2 or stamps[-1] <= stamps[0]:
        return None
    rate = (len(stamps) - 1) / (stamps[-1] - stamps[0])
    return pending / rate


def dict_store_status(store, stall_after=None) -> StoreStatus:
    """``store_status`` as it was before the fold, record dicts and all."""
    store = ResultStore(store)
    manifest = store.read_manifest()
    size = manifest["grid_size"]
    num_shards = manifest["num_shards"]
    own_records = {}
    steal_records = {}
    for k in range(1, num_shards + 1):
        shard = _shard_spec(manifest, k)
        own_records[k] = _load_records(store, store.shard_path(shard))
        steal_records[k] = _load_records(store, store.steal_path(shard))
    covered = {}
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
        statuses.append(ShardStatus(
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
        ))
    return StoreStatus(manifest=manifest, shards=tuple(statuses))
