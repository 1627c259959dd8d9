"""Sharded, resumable, multi-host design-space exploration.

Paper-scale cycle-accurate DSE studies outgrow one process: the grid is
embarrassingly parallel, but an in-memory sweep ties the whole study's
lifetime to one machine staying up.  This package turns a sweep into a
restartable *pipeline* over durable artifacts instead:

1. **shard** — the deterministic grid indexing of
   :mod:`repro.harness.dse` is the partition key: shard ``K/N`` owns a
   fixed, stateless index set (:mod:`repro.dist.sharding`), so any mix
   of hosts/processes can each run ``python -m repro dse-shard --shard
   K/N --out store/`` against a shared directory with no coordinator.
   Heterogeneous fleets weight the partition (``--shard K/N@w1,...,wN``
   — a 64-core box owns proportionally more of the grid than a laptop);
2. **persist** — every evaluated point becomes one JSONL completion
   record in the store (:mod:`repro.dist.store`): append-only, flushed
   per point, tolerant of a killed writer's truncated last line.
   Re-running a shard skips every index already recorded — checkpoint /
   resume for free;
3. **steal** — with ``--steal``, a shard that exhausts its own slice
   claims missing indices of slower shards (advisory per-range claim
   files, crash-safe: abandoned claims expire) and evaluates them into
   its own steal file, so the fleet's wall-clock tracks aggregate
   throughput instead of the slowest member (:mod:`repro.dist.runner`);
4. **merge** — ``dse-merge store/`` verifies the shards covered the
   grid (duplicates tolerated only when bit-identical, so stealing
   never compromises correctness) and reconstructs the single-process
   :func:`~repro.harness.dse.sweep_design_space` output **bit for bit**
   (points, grid ordering, Pareto frontier) as a pure fold of records:
   the merge builds no workload and runs no evaluator
   (:mod:`repro.dist.merge`);
5. **observe** — ``dse-status store/`` reports per-shard progress
   (scored vs failed records, stolen-index counts, owed-after-stealing
   ETA, retry counts, ``--stall-after`` staleness flags) without
   touching an evaluator;
6. **supervise** — ``dse-fleet`` forks N shards from its own process,
   which has already imported ``repro`` (each child calls a function of
   its shard, under ``dse-fleet`` the one ``dse-shard`` runs, so no
   shard pays interpreter start-up, imports or argument parsing), and
   relaunches crashed ones, and hung ones whose ledgers went stale, with
   backoff (:mod:`repro.dist.fleet`), so a seeded fault storm — or a
   real bad day — still converges to the same bit-identical merge.


The same machinery scales *down* to one box: N local processes sharding
one store are how the shard-scaling benchmark
(``benchmarks/perf/test_dist_perf.py``) and the CI smoke job exercise
the multi-host path.
"""

from .fleet import FleetResult, run_fleet
from .merge import (
    MergeResult,
    ShardStatus,
    StoreStatus,
    merge_store,
    store_status,
)
from .runner import (
    ShardRunResult,
    model_workload_spec,
    run_shard,
    workload_fingerprint,
    workload_from_spec,
)
from .sharding import ShardSpec
from .store import (
    IncompleteStoreError,
    JsonlAppender,
    ResultStore,
    StoreCorruptError,
    StoreError,
    StoreMismatchError,
    build_manifest,
    config_from_dict,
    config_to_dict,
    encode_record,
)

__all__ = [
    "ShardSpec",
    "ResultStore",
    "JsonlAppender",
    "StoreError",
    "StoreCorruptError",
    "StoreMismatchError",
    "IncompleteStoreError",
    "build_manifest",
    "config_to_dict",
    "config_from_dict",
    "encode_record",
    "ShardRunResult",
    "run_shard",
    "FleetResult",
    "run_fleet",
    "model_workload_spec",
    "workload_from_spec",
    "workload_fingerprint",
    "MergeResult",
    "merge_store",
    "ShardStatus",
    "StoreStatus",
    "store_status",
]
