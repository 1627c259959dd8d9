"""``store_status`` is a fold: the dict-based version's values, streamed.

:func:`repro.dist.store_status` (behind ``dse-status`` and a live served
job's status) reads each ledger once and keeps per shard only index
sets, timestamp bounds and counts.  ``status_oracle.dict_store_status``
keeps the version that indexed every record into dicts; on generated
stores with steals, duplicates, failures, retries, torn tails, stray
indices and partial shards, with and without ``stall_after``, both must
return equal :class:`~repro.dist.StoreStatus` values.
"""

import json
import random
import time
import tracemalloc

import pytest

from repro.dist import ResultStore, ShardSpec, build_manifest, store_status
from repro.hw.params import VITCOD_DEFAULT
from repro.dist.runner import model_workload_spec
from repro.sim.evaluator import evaluator_from_spec

from status_oracle import dict_store_status

#: Stale records are this old, fresh ones at most a minute old, so a
#: one-hour ``stall_after`` never sits near a record's age.
STALE_S, STALL_AFTER_S = 1e5, 3600.0


def _record(index, rng, now):
    record = {"i": index, "p": [["mac_lines", 16 + index]]}
    if rng.random() < 0.25:
        record["err"] = "RuntimeError: injected"
    else:
        record.update(s=rng.random(), e=rng.random(), a=float(index))
    if rng.random() < 0.3:
        record["r"] = rng.randint(1, 3)
    if rng.random() < 0.85:
        if rng.random() < 0.5:
            record["t"] = now - STALE_S - rng.choice([0.0, 1.0, rng.random() * 50])
        else:
            record["t"] = now - rng.random() * 60
    return record


def _write_ledger(path, records, rng):
    lines = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    if rng.random() < 0.2:  # a killed writer's torn final line
        lines += json.dumps(_record(0, rng, 0.0))[: rng.randint(1, 12)]
    if lines:
        path.write_text(lines)


def _generated_store(root, rng):
    """A small store with every kind of record ``store_status`` counts."""
    values = [16, 32, 48, 64, 80, 96][: rng.randint(1, 6)]
    grid = {"mac_lines": values, "ae_compression": [None, 0.5][: rng.randint(1, 2)]}
    size = len(values) * len(grid["ae_compression"])
    num_shards = rng.randint(1, 4)
    weights = None
    if num_shards > 1 and rng.random() < 0.3:
        weights = [rng.randint(0, 3) for _ in range(num_shards)]
        weights[rng.randrange(num_shards)] += 1
    manifest = build_manifest(
        grid, num_shards, evaluator_from_spec("analytical"), VITCOD_DEFAULT,
        model_workload_spec("deit-tiny"),
        weights=ShardSpec(1, num_shards, weights=tuple(weights)).weights
        if weights else None,
    )
    store, _ = ResultStore.create_or_attach(root, manifest)
    now = time.time()
    for k in range(1, num_shards + 1):
        shard = ShardSpec(k, num_shards, weights=tuple(weights) if weights else None)
        owned = list(shard.indices(size))
        others = [i for i in range(size) if i not in owned]
        own = rng.sample(owned, rng.randint(0, len(owned)))  # partial shards
        own += rng.sample(own, min(len(own), rng.randint(0, 2)))  # repeats
        if others and rng.random() < 0.1:
            own.append(rng.choice(others))  # a stray index the merge refuses
        _write_ledger(store.shard_path(shard),
                      [_record(i, rng, now) for i in own], rng)
        stolen = rng.sample(others, rng.randint(0, len(others)))
        stolen += rng.sample(stolen, min(len(stolen), rng.randint(0, 2)))
        if rng.random() < 0.1:
            stolen.append(size + rng.randint(0, 3))  # out of range
        if stolen or rng.random() < 0.5:
            _write_ledger(store.steal_path(shard),
                          [_record(i, rng, now) for i in stolen], rng)
    return store


@pytest.mark.parametrize("seed", range(4))
def test_fold_equals_dict_version_on_generated_stores(tmp_path, seed):
    rng = random.Random(seed)
    for case in range(60):
        store = _generated_store(tmp_path / f"store-{case}", rng)
        for stall_after in (None, STALL_AFTER_S):
            want = dict_store_status(store.root, stall_after=stall_after)
            got = store_status(store.root, stall_after=stall_after)
            assert got == want, (case, stall_after)


def test_status_reads_no_record_into_a_dict(tmp_path, monkeypatch):
    store = _generated_store(tmp_path / "store", random.Random(7))
    want = dict_store_status(store.root)

    def loaded(*args):  # pragma: no cover - must not run
        raise AssertionError("records were indexed into a dict")

    monkeypatch.setattr(ResultStore, "load_records", loaded)
    assert store_status(store.root) == want


def test_status_peak_follows_the_indices(tmp_path):
    """On a 4096-point store the fold's traced peak is a fraction of the
    dict version's, which holds every record."""
    grid = {
        "mac_lines": list(range(16, 144, 8)),
        "bandwidth_gbps": [24.0 + 9.5 * k for k in range(16)],
        "act_buffer_kb": [32, 48, 64, 96, 128, 192, 256, 384],
        "ae_compression": [None, 0.5],
    }
    manifest = build_manifest(
        grid, 2, evaluator_from_spec("cycle"), VITCOD_DEFAULT,
        model_workload_spec("deit-tiny"),
    )
    store, _ = ResultStore.create_or_attach(tmp_path / "store", manifest)
    for k in (1, 2):
        shard = ShardSpec(k, 2)
        store.shard_path(shard).write_text("".join(
            json.dumps({"i": i, "p": [["mac_lines", 16], ["bandwidth_gbps", 24.0],
                                      ["act_buffer_kb", 32],
                                      ["ae_compression", None]],
                        "s": 1e-3 + i, "e": 1e-4 + i, "a": 64.0,
                        "t": 1000.0 + i}) + "\n"
            for i in shard.indices(4096)
        ))
    peaks = {}
    for name, status in (("fold", store_status), ("dicts", dict_store_status)):
        status(store.root)  # warm: lazy imports are not the fold's
        tracemalloc.start()
        try:
            assert status(store.root).done == 4096
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["fold"] < peaks["dicts"] / 4, peaks
