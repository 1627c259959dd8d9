"""Shard execution: evaluate one slice of a grid into a durable store.

:func:`run_shard` is the per-host entry point of a distributed study
(``python -m repro dse-shard`` wraps it): compute the shard's index set,
skip every index the store already holds a completion record for, stream
the rest through the shared DSE engine (any pluggable evaluator), and
append one record per point as it completes.  A shard scores in its own
process, one chunk at a time; a study fans out by running more shards
(``dse-fleet --num-shards``).  Every
evaluator — fault-injecting wrappers and lifted per-point callables
included — scores the shard's strided index set in bounded chunks, one
``evaluate_batch`` call each (:mod:`repro.harness.dse`), still emitting
one durable completion record per point.  Killing the process at any
moment loses at most the chunk in flight; re-running the same command
finishes the shard.

**Work-stealing** (``steal=True``) makes the fleet elastic: a shard that
exhausts its own index set computes which indices the store still owes —
the records themselves are the ledger, no coordinator needed — and
claims batches of a slower shard's missing work through advisory
per-range claim files (exclusively published; abandoned claims expire
after ``claim_ttl`` seconds).  Stolen completions append to the
stealer's own ``steal-K-of-N.jsonl`` file, so the one-writer-per-file
contract holds, and victims periodically re-scan steal coverage to skip
work someone else already finished.  Claims are *advisory*: two shards
racing on the same index at worst evaluate it twice, and because
evaluation is deterministic the duplicate records are bit-identical
(modulo timestamp) and the merge tolerates them.  A shard killed
mid-steal leaves at most a torn last line (repaired on resume) and an
unreleased claim (expired after the TTL) — the store stays mergeable
once any shard finishes the range.

Workload recipes (`workload spec` dicts) make stores portable across
hosts: instead of pickling a workload, the manifest records *how to build
it* (model name, sparsity, seed, ...), and every process reconstructs it
through its own process-wide :mod:`repro.perf` cache.  A ``dse-fleet``
supervisor never builds the workload, so each forked shard builds its
own; only a server's shards, which are threads of one process, share
one construction.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from .. import obs
from ..faults.evaluator import FaultyEvaluator
from ..faults.plan import activate, active_plan
from ..harness.dse import (
    PointFailure,
    check_grid,
    grid_size,
    iter_indexed_design_points,
)
from ..hw.params import VITCOD_DEFAULT
from ..ledger import JsonlAppender, publish, remove
from ..perf.cache import cached_model_workload
from ..sim.evaluator import check_swept_knobs, resolve_evaluator
from .sharding import ShardSpec
from .store import ResultStore, build_manifest, encode_record

__all__ = [
    "ShardRunResult",
    "run_shard",
    "model_workload_spec",
    "workload_from_spec",
    "workload_fingerprint",
]

_log = obs.get_logger("dist.runner")

#: Grid indices claimed per steal batch: small enough that several
#: stealers share one straggler's backlog, large enough that
#: evaluators still amortise their array walk.
_STEAL_CHUNK = 16

#: Seconds between re-scans of the store's steal files while a shard
#: works its own slice — the cadence at which a straggler notices that a
#: stealer already finished some of its indices and stops re-evaluating
#: them.
_COVERAGE_REFRESH_S = 0.5

#: Seconds before an unreleased claim file counts as abandoned (its
#: owner crashed or was preempted) and may be re-claimed.  ``<= 0``
#: disables the courtesy entirely: existing claims are ignored.
_CLAIM_TTL_S = 600.0

#: Default per-point budget of re-evaluations for *transient* failures
#: (``PointFailure.transient`` — see :mod:`repro.faults`), and the
#: jittered exponential backoff between retry rounds.  Deterministic
#: failures never retry: they persist exactly once, same as always.
_MAX_POINT_RETRIES = 4
_RETRY_BASE_S = 0.05
_RETRY_CAP_S = 2.0


def workload_fingerprint(workload) -> str:
    """Digest of a workload's observable structure (shape + sparsity).

    The guard behind ``{"kind": "opaque"}`` manifests: a workload passed
    without a reconstruction recipe still pins the store to *this*
    workload's structure, so two shards run against different workloads
    cannot silently mix into one study (the manifest comparison fails
    loudly instead).  Covers everything the evaluators read — per-head
    polarization statistics and the dense GEMM walk — not Python
    identity, so equal workloads built on different hosts agree.
    """
    parts = [str(getattr(workload, "name", ""))]
    layers = getattr(workload, "attention_layers", workload)
    for layer in layers:
        parts.append(
            f"L{layer.num_tokens},{layer.num_heads},{layer.head_dim},"
            f"{int(layer.streaming_fallback)}"
        )
        parts.extend(
            f"h{head.num_global_tokens},{head.denser_nnz},"
            f"{head.sparser_nnz},{head.sparser_index_bytes},"
            f"{head.sparser_locality!r}"
            for head in layer.heads
        )
    for gemm in getattr(workload, "linear_layers", ()):
        parts.append(f"g{gemm.name},{gemm.m},{gemm.k},{gemm.n}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def model_workload_spec(
    model, sparsity=0.9, theta_d=0.25, seed=0, index_format="csc", reordered=True
) -> dict:
    """Recipe for a registry model's workload, for result-store manifests.

    Mirrors :func:`repro.perf.cached_model_workload`'s full parameter
    tuple — two hosts holding the same spec construct bit-identical
    workloads (synthetic attention maps are seeded).
    """
    return {
        "kind": "model",
        "model": str(model),
        "sparsity": sparsity,
        "theta_d": theta_d,
        "seed": seed,
        "index_format": index_format,
        "reordered": reordered,
    }


def workload_from_spec(spec):
    """Build the workload a manifest's spec describes (perf-cache backed);
    a field the spec leaves out takes :func:`model_workload_spec`'s default.

    Construction routes through :func:`repro.perf.cached_model_workload`,
    so every shard/merge step in one process — and every evaluator call
    behind it — shares one workload object and its memoized geometry.
    """
    if not spec or spec.get("kind") != "model":
        raise ValueError(
            f"store manifest has no reconstructible workload spec "
            f"({spec!r}); pass workload= explicitly"
        )
    recipe = {**model_workload_spec(spec["model"]), **spec}
    return cached_model_workload(
        recipe["model"],
        sparsity=recipe["sparsity"],
        theta_d=recipe["theta_d"],
        seed=recipe["seed"],
        index_format=recipe["index_format"],
        reordered=recipe["reordered"],
    )


@dataclass(frozen=True)
class ShardRunResult:
    """Outcome of one :func:`run_shard` call."""

    shard: ShardSpec
    store: Path
    path: Path  # this shard's JSONL file
    total: int  # grid points owned by the shard
    evaluated: int  # scored by THIS run
    skipped: int  # already recorded (resume, or stolen by another shard)
    failed: int  # failure records now in the shard file
    stolen: int = 0  # other shards' points THIS run claimed and recorded
    retried: int = 0  # transient-failure re-evaluations THIS run absorbed

    @property
    def complete(self) -> bool:
        return self.evaluated + self.skipped == self.total


# ----------------------------------------------------------------------
# Transient-failure retries
# ----------------------------------------------------------------------
def backoff_s(attempt: int, base_s=_RETRY_BASE_S, cap_s=_RETRY_CAP_S) -> float:
    """Capped, jittered exponential backoff before retry ``attempt``
    (1-based): ``min(cap_s, base_s * 2**(attempt - 1))`` times a jitter
    in [0.5, 1.5).  The one backoff of point retries, served task
    retries (both at the defaults) and fleet relaunches; the jitter
    never affects results."""
    return min(cap_s, base_s * 2 ** (attempt - 1)) * (0.5 + random.random())


def _score_into(
    out,
    workload,
    grid,
    indices,
    *,
    base_config,
    chunksize,
    evaluator,
    handicap,
    retries,
    counter,
    skip=None,
):
    """Evaluate ``indices`` into appender ``out``, one record per point.

    The write path for both the owned slice and stolen batches.  A
    transient failure (``PointFailure.transient``) is *not* persisted on
    first sight: the point queues for re-evaluation in retry rounds with
    capped jittered exponential backoff, and only a success, a
    deterministic failure, or an exhausted budget becomes the durable
    completion record — carrying the retry count (``r``) it cost.
    Returns ``(recorded, failed, retried)``.
    """
    recorded = failed = retried = 0
    transient = {}  # grid index -> failed attempts so far

    def emit(index, result, retries=0):
        nonlocal recorded, failed
        if skip is not None and skip(index):
            return
        if handicap:
            time.sleep(handicap)
        out.append(encode_record(index, result, retries=retries))
        obs.counter(counter).inc()
        recorded += 1
        if isinstance(result, PointFailure):
            obs.counter("dist_failure_records").inc()
            failed += 1

    def evaluate(batch):
        return iter_indexed_design_points(
            workload,
            grid,
            batch,
            base_config=base_config,
            chunksize=chunksize,
            evaluator=evaluator,
            keep_failures=True,
        )

    for index, result in evaluate(indices):
        if retries > 0 and getattr(result, "transient", False):
            transient[index] = 1
            obs.counter("dist_transient_failures").inc()
            continue
        emit(index, result)
    attempt = 1
    while transient and attempt <= retries:
        time.sleep(backoff_s(attempt))
        obs.counter("dist_point_retries").inc(len(transient))
        retried += len(transient)
        still = {}
        for index, result in evaluate(sorted(transient)):
            tries = transient[index]
            if getattr(result, "transient", False):
                if attempt < retries:
                    still[index] = tries + 1
                    continue
                # Budget spent: the transient failure persists as the
                # point's completion record, tagged with what it cost.
                obs.counter("dist_retries_exhausted").inc()
            emit(index, result, retries=tries)
        transient = still
        attempt += 1
    return recorded, failed, retried


# ----------------------------------------------------------------------
# Work-stealing: owed indices, advisory claims, steal coverage
# ----------------------------------------------------------------------
def _recorded_indices(store: ResultStore) -> set:
    """Every grid index any shard or steal file holds a record for,
    streamed: no record outlives its line."""
    return {
        index
        for _, _, path in store.shard_files() + store.steal_files()
        for index, _ in store.iter_records(path)
    }


def _owed_indices(size: int, shard: ShardSpec, recorded) -> list:
    """Grid indices still missing from the store that ``shard`` may steal.

    Pure set arithmetic so the invariant is property-testable: the owed
    set never overlaps the shard's own indices (a shard's own slice is
    its primary job, never "stolen" from itself) and together with the
    shard's own slice and the recorded set it covers the whole grid.
    """
    own = set(shard.indices(size))
    return [
        index
        for index in range(size)
        if index not in recorded and index not in own
    ]


def _steal_batches(owed, chunk):
    """Deterministic contiguous batches of the sorted owed index list.

    Determinism is what bounds redundancy: two stealers looking at the
    same store state compute the same batches, so the claim files (named
    after each batch's index range) serialise them instead of letting
    both evaluate everything.
    """
    for start in range(0, len(owed), chunk):
        yield owed[start : start + chunk]


def _claim_path(store: ResultStore, batch) -> Path:
    return store.claims_dir / f"steal-{batch[0]:08d}-{batch[-1]:08d}.claim"


def _try_claim(path: Path, shard, ttl: float) -> bool:
    """Atomically claim a steal range, honouring unexpired prior claims.

    An exclusive publish makes first-creation atomic on a shared
    directory; an existing claim younger than ``ttl`` seconds (by file
    mtime) is respected, an older one is considered abandoned and taken
    over (a replace publish, last writer wins).  Claims are *advisory*: a
    lost race means redundant — never wrong — work, because the merge
    tolerates bit-identical duplicates.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    plan = active_plan()
    if plan is not None:
        # Chaos hook: widen the window between computing the owed set
        # and claiming it, so claim races actually happen under test.
        plan.claim_fault()
    payload = json.dumps({"shard": str(shard), "t": time.time()}) + "\n"
    if not publish(path, payload, exclusive=True):
        try:
            age = time.time() - path.stat().st_mtime
        except OSError:
            # The owner released it between our publish and stat: treat
            # the range as handled and move on.
            return False
        if ttl > 0 and age <= ttl:
            return False
        publish(path, payload, exclusive=False)
        obs.counter("dist_claim_takeovers").inc()
        _log.info(
            "shard %s took over abandoned claim %s (%.1fs old)",
            shard,
            path.name,
            age,
        )
    obs.counter("dist_steal_claims").inc()
    return True


def _release_claim(path: Path):
    try:
        remove(path)
    except OSError:
        pass


class _StealCoverage:
    """Time-bounded view of the grid indices steal files already cover.

    A straggler consults this before recording each of its own points:
    if a stealer already persisted the index, the point is skipped (the
    record exists, re-recording it would only add a tolerated duplicate
    and waste the straggler's time).  Re-scanning the steal files on
    every point would hammer the (possibly networked) store, so scans
    are rate-limited to one per ``refresh_s`` seconds.
    """

    def __init__(self, store, shard, refresh_s=_COVERAGE_REFRESH_S):
        self._store = store
        self._own = (shard.index, shard.count)
        self._refresh_s = refresh_s
        self._covered = set()
        self._last = None

    def refresh(self) -> set:
        covered = set()
        for shard_index, shard_count, path in self._store.steal_files():
            if (shard_index, shard_count) == self._own:
                continue
            covered.update(index for index, _ in self._store.iter_records(path))
        self._covered = covered
        self._last = time.monotonic()
        return covered

    def covered(self, index) -> bool:
        if self._last is None or time.monotonic() - self._last >= self._refresh_s:
            self.refresh()
        return index in self._covered


def _steal_missing(
    workload,
    grid,
    shard,
    store,
    base_config,
    evaluator,
    chunksize,
    steal_chunk,
    claim_ttl,
    handicap,
    retries,
) -> tuple:
    """Claim and evaluate grid indices slower shards still owe.

    Loops until the store owes nothing this shard can claim: each round
    re-reads the ledger (other shards and stealers make progress
    concurrently), carves the owed indices into deterministic batches,
    and evaluates every batch it wins the claim for — batch-dispatched
    through the same chunk path as owned work, one durable record per
    point in this shard's steal file.  Exits without waiting when every
    remaining owed range is claimed by a live stealer; if that stealer
    dies, its claim expires and any later ``steal=True`` run finishes
    the range.
    """
    size = grid_size(grid)
    stolen = retried = 0
    with JsonlAppender(store.steal_path(shard)) as out:
        while True:
            owed = _owed_indices(size, shard, _recorded_indices(store))
            if not owed:
                break
            progressed = False
            for batch in _steal_batches(owed, steal_chunk):
                claim = _claim_path(store, batch)
                if not _try_claim(claim, shard, claim_ttl):
                    continue
                recorded, _, batch_retried = _score_into(
                    out,
                    workload,
                    grid,
                    batch,
                    base_config=base_config,
                    chunksize=chunksize,
                    evaluator=evaluator,
                    handicap=handicap,
                    retries=retries,
                    counter="dist_records_stolen",
                )
                stolen += recorded
                retried += batch_retried
                _release_claim(claim)
                progressed = True
            if not progressed:
                break
    return stolen, retried


def run_shard(
    workload,
    grid,
    shard,
    store,
    base_config=None,
    evaluator=None,
    chunksize=None,
    workload_spec=None,
    steal=False,
    steal_chunk=None,
    claim_ttl=_CLAIM_TTL_S,
    handicap=0.0,
    max_point_retries=_MAX_POINT_RETRIES,
) -> ShardRunResult:
    """Evaluate shard ``K/N`` of ``grid`` into a durable result store.

    Creates (or validates) the store's manifest, reads which indices
    this shard's ledger already holds, and evaluates **only the missing
    indices** — re-running after a crash, preemption or deliberate kill
    picks up where the file ends.  Each completed point (or captured
    evaluator failure) is appended and flushed immediately.  Indices a
    stealer's ``steal-*.jsonl`` file already covers are skipped too (and
    re-checked periodically while running), so a straggler stops
    re-evaluating work the fleet already finished.

    ``shard`` accepts weighted spellings (``"2/3@4,1,1"``, see
    :meth:`ShardSpec.parse`); a shard launched without weights against a
    weighted store adopts the manifest's vector, and a conflicting
    vector fails loudly.  ``steal=True`` adds a steal phase after the
    own slice completes: missing indices of slower shards are claimed in
    ``steal_chunk``-sized ranges (advisory claim files under
    ``claims/``, abandoned ones expire after ``claim_ttl`` seconds) and
    evaluated into this shard's steal file — see :func:`_steal_missing`.
    ``handicap`` sleeps that many seconds per recorded point (an
    artificial straggler for stealing tests and benchmarks).

    ``workload_spec`` (see :func:`model_workload_spec`) is stored in the
    manifest so other hosts can verify and rebuild the workload.

    Failures are classified: a *transient* one (the evaluator raised a
    :class:`repro.faults.TransientError` or ``OSError``) is re-evaluated
    up to ``max_point_retries`` times with jittered backoff before
    anything is persisted, and the completion record carries the retry
    count; a deterministic failure persists exactly once, as always.  A
    :class:`repro.faults.FaultyEvaluator` is recognised here: its plan is
    scoped to the store (one-shot faults survive process relaunches) and
    activated in this thread for the duration, arming the ledger and
    claim hooks.  A malformed grid, or one sweeping a knob the evaluator
    does not model, raises before the store is touched
    (:func:`repro.harness.dse.check_grid`,
    :func:`repro.sim.evaluator.check_swept_knobs`).
    """
    grid = check_grid(grid)
    shard = ShardSpec.parse(shard)
    evaluator = resolve_evaluator(evaluator)
    check_swept_knobs(evaluator, sorted(grid))
    plan = getattr(evaluator, "fault_plan", None)
    point_evaluator = evaluator.inner if plan is not None else evaluator
    base_config = base_config or VITCOD_DEFAULT

    # Pin the store to this workload's *structure*, recipe or not: two
    # shards run against different workloads then disagree on the
    # manifest and fail loudly instead of silently mixing — including a
    # caller-supplied recipe that does not describe the workload actually
    # evaluated.
    if workload_spec is None:
        workload_spec = {"kind": "opaque"}
    workload_spec = {**workload_spec, "fingerprint": workload_fingerprint(workload)}
    store = ResultStore(store)
    existing = store.read_manifest(missing_ok=True)
    if shard.weights is None and existing and existing.get("weights"):
        # A weighted store pins its vector: unweighted launch commands
        # inherit it, so only the host that creates the study needs the
        # full spelling.
        shard = ShardSpec(
            shard.index,
            shard.count,
            weights=tuple(int(weight) for weight in existing["weights"]),
        )
    store.ensure_manifest(
        build_manifest(
            grid,
            shard.count,
            evaluator,
            base_config,
            workload_spec,
            weights=shard.weights,
        )
    )
    path = store.shard_path(shard)
    size = grid_size(grid)
    done, failed = set(), 0  # this shard's recorded indices and failures
    for index, record in store.iter_records(path):
        if index not in done:
            done.add(index)
            failed += "err" in record
    coverage = _StealCoverage(store, shard)
    covered = coverage.refresh()
    owned = shard.indices(size)
    todo = [index for index in owned if index not in done and index not in covered]
    registry = obs.get_registry()
    if registry.enabled and len(owned) > len(todo):
        registry.counter("dist_resume_skips").inc(len(owned) - len(todo))

    if plan is not None:
        # Bind the plan's one-shot markers to the store directory (so a
        # relaunched shard does not re-fire a spent fault) and hand the
        # point evaluator a wrapper carrying the scoped plan.
        plan = plan.scoped(store.root)
        point_evaluator = FaultyEvaluator(point_evaluator, plan)
    retries = max(0, int(max_point_retries))

    def pending():
        for index in todo:
            if coverage.covered(index):
                continue
            yield index

    with obs.span("dist_shard", shard=str(shard)):
        with activate(plan) if plan is not None else nullcontext():
            with JsonlAppender(path) as out:
                evaluated, new_failed, retried = _score_into(
                    out,
                    workload,
                    grid,
                    pending(),
                    base_config=base_config,
                    chunksize=chunksize,
                    evaluator=point_evaluator,
                    handicap=handicap,
                    retries=retries,
                    counter="dist_records_written",
                    # A stealer may persist an index while its chunk is in
                    # flight; recording it again would only add a tolerated
                    # duplicate.
                    skip=coverage.covered,
                )
                failed += new_failed

            stolen = 0
            if steal:
                stolen, steal_retried = _steal_missing(
                    workload,
                    grid,
                    shard,
                    store,
                    base_config,
                    point_evaluator,
                    chunksize,
                    steal_chunk or _STEAL_CHUNK,
                    claim_ttl,
                    handicap,
                    retries,
                )
                retried += steal_retried
    _log.info(
        "shard %s: %d evaluated, %d skipped, %d failed, %d stolen, %d retried",
        shard,
        evaluated,
        len(owned) - evaluated,
        failed,
        stolen,
        retried,
    )
    return ShardRunResult(
        shard=shard,
        store=store.root,
        path=path,
        total=len(owned),
        evaluated=evaluated,
        skipped=len(owned) - evaluated,
        failed=failed,
        stolen=stolen,
        retried=retried,
    )
