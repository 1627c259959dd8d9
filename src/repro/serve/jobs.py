"""Job lifecycle for the DSE service: durable submissions, shard workers.

A *job* is one DSE study submitted over the wire.  Its identity is the
content fingerprint of its result-store manifest (:mod:`.cache`), and its
durable form is one directory:

.. code-block:: text

    data_dir/jobs/<job_id>/
      store/        # a repro.dist ResultStore: MANIFEST.json + ledgers
      events.jsonl  # append-only lifecycle timeline (repro.obs.events)
      result.json   # rendered results, present iff the job is done
      error.json    # present iff the job failed structurally

A served job is its store.  :meth:`JobManager.submit` normalises a
request straight into the store's ``MANIFEST.json`` (grid, evaluator,
base config, workload recipe, shard count), the job's only record, and
that manifest's exclusive publish is what makes a submission a new job.
Everything that matters survives a server kill: the manifest says what
to run, the store's completion records say what already ran, and
``result.json`` says it finished.  :meth:`JobManager.resume` re-enqueues
every job directory without a result or an error on startup, and the
shards resume from their records (:func:`repro.dist.run_shard` skips
recorded indices) — a restarted server picks up mid-grid, not from
scratch.

Execution is a small in-process worker pool over a queue of *(job,
shard)* tasks: each job runs as ``n_shards`` :mod:`repro.dist` shards
against its own store (several jobs' shards interleave across workers),
and whichever worker completes a job's last shard merges the store
(:func:`repro.dist.merge_store` — bit-identical to ``dse-merge`` and the
single-process sweep) and publishes the rendered document to the result
cache.  Evaluator failures on individual grid points are completion
records like everywhere else in the dist layer; only structural errors
(an invalid sweep, a crashed merge) fail the job, durably, until an
identical re-submission retries it.

The manager's table holds live jobs only: queued, running or merging.
A job leaves it once its ``result.json`` or ``error.json`` is published
and its transition event appended, and from then on every lookup reads
its directory — so a server's memory follows its live work, not the
number of studies it has served.
"""

from __future__ import annotations

import json
import queue
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .. import obs
from ..dist.merge import merge_store, scored_so_far, store_status
from ..ledger import iter_jsonl, publish, remove
from ..obs.events import EventLog
from ..dist.runner import (
    backoff_s,
    model_workload_spec,
    run_shard,
    workload_fingerprint,
    workload_from_spec,
)
from ..dist.store import (
    ResultStore,
    StoreError,
    build_manifest,
    config_from_dict,
)
from ..harness.dse import check_grid
from ..harness.serialization import LazyArray, dse_result_payload, to_json
from ..hw.params import VITCOD_DEFAULT
from ..sim.evaluator import check_swept_knobs, evaluator_from_spec
from .cache import ResultCache, study_fingerprint

__all__ = [
    "ServeRequestError",
    "ServeOverloadError",
    "UnknownJobError",
    "JobFailedError",
    "JobState",
    "JobManager",
]

STORE_NAME = "store"
ERROR_NAME = "error.json"
EVENTS_NAME = "events.jsonl"

#: What one request may ask of the server: validation limits, not
#: scheduling hints.
_MAX_GRID_POINTS = 65536
_MAX_SHARDS = 16

_STOP = object()

#: The only strings a lookup joins to a path: a :func:`study_fingerprint`.
_JOB_ID = re.compile(r"[0-9a-f]{16}")

_log = obs.get_logger("serve.jobs")

_REQUEST_FIELDS = frozenset(
    {
        "grid",
        "evaluator",
        "base_config",
        "workload_spec",
        "model",
        "sparsity",
        "n_shards",
    }
)
_WORKLOAD_SPEC_FIELDS = frozenset(
    {"kind", "model", "sparsity", "theta_d", "seed", "index_format", "reordered"}
)


class ServeRequestError(ValueError):
    """A malformed job submission (the HTTP layer maps this to 400)."""


class ServeOverloadError(RuntimeError):
    """The task queue is full; come back later (maps to 503 + Retry-After).

    Backpressure, not failure: nothing was written to disk, and an
    identical re-submission after ``retry_after`` seconds lands normally.
    """

    def __init__(self, pending, limit, retry_after):
        super().__init__(
            f"task queue is full ({pending} tasks pending, limit "
            f"{limit}); retry in {retry_after:.0f}s"
        )
        self.pending = int(pending)
        self.limit = int(limit)
        self.retry_after = float(retry_after)


class UnknownJobError(KeyError):
    """A job id this server's data dir has never seen (maps to 404)."""


class JobFailedError(RuntimeError):
    """Results were requested for a structurally failed job (maps to 409)."""


@dataclass
class JobState:
    """One job: a live table entry, or a finished job read from its dir."""

    job_id: str
    manifest: dict  # the store's MANIFEST.json: what the job runs
    root: Path
    state: str  # queued | running | merging | done | failed
    error: str = None
    remaining: set = field(default_factory=set)  # shard indices still owed
    attempts: dict = field(default_factory=dict)  # shard index -> failures

    @property
    def store_root(self) -> Path:
        return self.root / STORE_NAME

    @property
    def n_shards(self) -> int:
        return int(self.manifest["num_shards"])

    @property
    def grid_size(self) -> int:
        return int(self.manifest["grid_size"])


class JobManager:
    """Submission, execution and observation of jobs in one data dir.

    ``workers`` threads drain the shard-task queue (``0`` starts none —
    tests then drive execution deterministically with :meth:`run_next`).

    Robustness knobs: ``max_pending`` bounds the task queue (submissions
    that would overflow it raise :class:`ServeOverloadError` → 503);
    ``task_retries`` is the per-shard-task retry budget before a crash
    or timeout fails the whole job; ``task_timeout`` puts each shard
    task under a watchdog (``None`` disables it).
    """

    def __init__(
        self,
        data_dir,
        workers=2,
        max_pending=1024,
        task_retries=2,
        task_timeout=None,
    ):
        self.data_dir = Path(data_dir)
        self.jobs_root = self.data_dir / "jobs"
        self.jobs_root.mkdir(parents=True, exist_ok=True)
        self.cache = ResultCache(self.jobs_root)
        self.max_pending = int(max_pending)
        self.task_retries = int(task_retries)
        self.task_timeout = None if task_timeout is None else float(task_timeout)
        self.workers = int(workers)
        self.stats = {
            "submitted": 0,
            "cache_hits": 0,
            "deduplicated": 0,
            "jobs_completed": 0,
            "jobs_failed": 0,
            "shards_run": 0,
            "task_retries": 0,
            "task_timeouts": 0,
            "overload_rejections": 0,
        }
        self._jobs = {}
        self._lock = threading.RLock()
        self._events_lock = threading.Lock()
        self._queue = queue.Queue()
        self._threads = []
        for index in range(int(workers)):
            thread = threading.Thread(
                target=self._worker, name=f"serve-worker-{index + 1}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    # ------------------------------------------------------------------
    # Telemetry plumbing
    # ------------------------------------------------------------------
    def _bump(self, key):
        """Increment a stats counter and its telemetry mirror."""
        self.stats[key] += 1
        obs.counter(f"serve_{key}").inc()

    def _event(self, root, kind, **fields):
        """Append one record to a job's durable ``events.jsonl`` timeline."""
        record = {"t": time.time(), "event": kind, **fields}
        with self._events_lock:
            EventLog(Path(root) / EVENTS_NAME).append(record)

    def _note_transition(self, job, state, **fields):
        """Count a lifecycle transition and append it to the timeline."""
        obs.counter(
            "serve_job_transitions",
            help="Job lifecycle transitions by target state.",
            state=state,
        ).inc()
        self._event(job.root, state, **fields)

    # ------------------------------------------------------------------
    # Request validation
    # ------------------------------------------------------------------
    def _normalize_grid(self, grid) -> dict:
        if not isinstance(grid, dict) or not grid:
            raise ServeRequestError(
                "'grid' must be a non-empty object mapping parameter "
                "names to value lists"
            )
        size = 1
        for name, values in grid.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ServeRequestError(
                    f"grid parameter {name!r} needs a non-empty list of values"
                )
            size *= len(values)
        if size > _MAX_GRID_POINTS:
            raise ServeRequestError(
                f"grid has {size} points, above this server's limit of "
                f"{_MAX_GRID_POINTS}"
            )
        try:
            checked = check_grid(grid)
        except ValueError as exc:
            raise ServeRequestError(str(exc)) from None
        return {name: list(values) for name, values in checked.items()}

    def _normalize_workload_spec(self, request) -> dict:
        spec = request.get("workload_spec")
        if spec is not None:
            if "model" in request or "sparsity" in request:
                raise ServeRequestError(
                    "pass either 'workload_spec' or the 'model'/'sparsity' "
                    "shorthand, not both"
                )
            if not isinstance(spec, dict) or spec.get("kind") != "model":
                raise ServeRequestError(
                    "'workload_spec' must be an object with kind='model' "
                    "(opaque workloads cannot cross the wire)"
                )
            unknown = sorted(set(spec) - _WORKLOAD_SPEC_FIELDS)
            if unknown:
                raise ServeRequestError(f"unknown workload_spec field(s) {unknown}")
        else:
            spec = {"model": request.get("model", "deit-tiny")}
            if "sparsity" in request:
                spec["sparsity"] = request["sparsity"]
        model = spec.get("model")
        if not isinstance(model, str) or not model:
            raise ServeRequestError(f"'model' must be a model name, got {model!r}")
        # Canonicalise to the full recipe, each missing field at its
        # default, so two spellings of the same study (defaults implicit
        # vs explicit) share one fingerprint.
        spec = {**model_workload_spec(model), **spec}
        sparsity = spec["sparsity"]
        if isinstance(sparsity, bool) or not isinstance(sparsity, (int, float)):
            raise ServeRequestError(f"'sparsity' must be a number, got {sparsity!r}")
        return spec

    def _normalize(self, request) -> dict:
        """The store manifest of a valid request, built once; anything
        else raises :class:`ServeRequestError` before a write."""
        if not isinstance(request, dict):
            raise ServeRequestError("request body must be a JSON object")
        unknown = sorted(set(request) - _REQUEST_FIELDS)
        if unknown:
            raise ServeRequestError(
                f"unknown request field(s) {unknown}; expected "
                f"{sorted(_REQUEST_FIELDS)}"
            )
        grid = self._normalize_grid(request.get("grid"))
        try:
            evaluator = evaluator_from_spec(request.get("evaluator", "analytical"))
            check_swept_knobs(evaluator, sorted(grid))
        except (TypeError, ValueError) as exc:
            raise ServeRequestError(str(exc)) from None
        plan = getattr(evaluator, "fault_plan", None)
        if plan is not None and plan.kill_after_records is not None:
            raise ServeRequestError(
                "fault plans with 'kill_after_records' cannot run served: "
                "shards execute in-process, so the injected SIGKILL would "
                "take the whole server down; use dse-fleet for kill storms"
            )
        base_config = request.get("base_config")
        if base_config is None:
            config = VITCOD_DEFAULT
        else:
            try:
                config = config_from_dict(base_config)
            except (KeyError, TypeError, ValueError) as exc:
                raise ServeRequestError(f"bad 'base_config': {exc}") from None
        n_shards = request.get("n_shards", 1)
        if isinstance(n_shards, bool) or not isinstance(n_shards, int):
            raise ServeRequestError(f"'n_shards' must be an integer, got {n_shards!r}")
        if not 1 <= n_shards <= _MAX_SHARDS:
            raise ServeRequestError(
                f"'n_shards' must be in 1..{_MAX_SHARDS}, got {n_shards}"
            )
        spec = self._normalize_workload_spec(request)
        try:
            workload = workload_from_spec(spec)
        except Exception as exc:
            raise ServeRequestError(f"cannot build workload from spec: {exc}") from None
        spec["fingerprint"] = workload_fingerprint(workload)
        return build_manifest(grid, n_shards, evaluator, config, spec)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request) -> dict:
        """Accept a study: create, deduplicate, or serve it from cache.

        Returns the submission info dict the POST handler renders:
        ``id``, ``state``, ``cache_hit`` (the study already finished —
        nothing was or will be re-scored), ``created`` (this call made a
        new job rather than landing on an existing one), plus size
        counters.  Raises :class:`ServeRequestError` on malformed input
        *before* any directory is touched.
        """
        manifest = self._normalize(request)
        job_id = study_fingerprint(manifest)
        with self._lock:
            self._bump("submitted")
            if self.cache.result_path(job_id).is_file():
                # Finished: its directory answers for it, so nothing is
                # registered, and the result itself is not read.
                self._bump("cache_hits")
                job = JobState(job_id, manifest, self.jobs_root / job_id, "done")
                self._event(job.root, "cache_hit")
                return self._submit_info(job, cache_hit=True, created=False)
            job = self._jobs.get(job_id)
            if job is not None and job.state != "failed":
                self._bump("deduplicated")
                self._event(job.root, "deduplicated")
                return self._submit_info(job, cache_hit=False, created=False)
            # Backpressure before any disk write: cache hits and dedups
            # above cost nothing, but a new job owes n_shards tasks.
            # Startup resume is exempt — it re-queues work this server
            # already accepted.
            pending = self._queue.qsize()
            if pending + manifest["num_shards"] > self.max_pending:
                self._bump("overload_rejections")
                retry_after = max(
                    1.0, min(60.0, pending / max(1, self.workers))
                )
                raise ServeOverloadError(pending, self.max_pending, retry_after)
            job_root = self.jobs_root / job_id
            # The manifest's exclusive publish is the one arbiter of a new
            # job: a concurrent identical submission, or a re-submission
            # of a job an earlier server life accepted, attaches instead.
            try:
                _, created = ResultStore.create_or_attach(
                    job_root / STORE_NAME, manifest
                )
            except StoreError as exc:
                raise ServeRequestError(
                    f"job {job_id} has a conflicting store on disk: {exc}"
                ) from None
            self._event(
                job_root,
                "submitted",
                created=created,
                evaluator=manifest["evaluator"]["name"],
                grid_size=manifest["grid_size"],
                n_shards=manifest["num_shards"],
            )
            job = self._enqueue(job_id, manifest)
            return self._submit_info(job, cache_hit=False, created=created)

    def _enqueue(self, job_id, manifest) -> JobState:
        """(Re-)queue every shard of a job; caller holds the lock."""
        job = JobState(job_id, manifest, self.jobs_root / job_id, "queued")
        self._jobs[job_id] = job
        job.remaining = set(range(1, job.n_shards + 1))
        remove(job.root / ERROR_NAME)
        for k in sorted(job.remaining):
            self._queue.put((job_id, k))
        self._note_transition(job, "queued", n_shards=job.n_shards)
        return job

    def _submit_info(self, job, cache_hit, created) -> dict:
        return {
            "id": job.job_id,
            "state": job.state,
            "cache_hit": cache_hit,
            "created": created,
            "n_shards": job.n_shards,
            "grid_size": job.grid_size,
            "evaluator": job.manifest["evaluator"]["name"],
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _worker(self):
        while True:
            task = self._queue.get()
            if task is _STOP:
                return
            self._run_task(*task)

    def run_next(self) -> bool:
        """Run one queued shard task in the calling thread.

        The deterministic test hook (and the whole execution path: the
        worker threads run exactly this).  Returns whether a task ran.
        """
        try:
            task = self._queue.get_nowait()
        except queue.Empty:
            return False
        if task is _STOP:
            return False
        self._run_task(*task)
        return True

    def _run_task(self, job_id, shard_index):
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state == "failed":
                return  # finished, or a sibling shard poisoned the job
            started = job.state == "queued"
            if started:
                job.state = "running"
        if started:
            self._note_transition(job, "running")
        self._event(job.root, "shard_started", shard=shard_index)
        try:
            run = self._execute_shard(job, shard_index)
            self._bump("shards_run")
        except Exception as exc:  # noqa: BLE001 - retried, then job-poisoning
            self._retry_or_fail(job, shard_index, exc)
            return
        self._event(
            job.root,
            "shard_finished",
            shard=shard_index,
            evaluated=run.evaluated,
            skipped=run.skipped,
            failed=run.failed,
        )
        with self._lock:
            job.remaining.discard(shard_index)
            ready = not job.remaining and job.state == "running"
            if ready:
                job.state = "merging"
        if ready:
            self._note_transition(job, "merging")
            try:
                self._merge(job)
            except Exception as exc:  # noqa: BLE001
                self._fail(job, exc)

    def _execute_shard(self, job, shard_index):
        """Run one shard, under the task watchdog when one is configured.

        With a ``task_timeout`` the shard runs on a helper thread so the
        worker can give up on it: a task over budget raises
        :class:`TimeoutError` here and is handled like any other shard
        failure (retry budget, then job failure).  The abandoned thread
        may still finish in the background — its store records are
        duplicate-tolerant, so a late completion is harmless.
        """

        def work():
            manifest = job.manifest
            return run_shard(
                workload_from_spec(manifest["workload"]),
                manifest["grid"],
                f"{shard_index}/{job.n_shards}",
                job.store_root,
                base_config=config_from_dict(manifest["base_config"]),
                evaluator=evaluator_from_spec(manifest["evaluator"]),
                workload_spec=manifest["workload"],
            )

        if self.task_timeout is None:
            return work()
        box = {}
        done = threading.Event()

        def target():
            try:
                box["run"] = work()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                box["exc"] = exc
            finally:
                done.set()

        thread = threading.Thread(
            target=target,
            name=f"serve-shard-{job.job_id[:8]}-{shard_index}",
            daemon=True,
        )
        thread.start()
        if not done.wait(self.task_timeout):
            self._bump("task_timeouts")
            raise TimeoutError(
                f"shard {shard_index} exceeded the task timeout "
                f"({self.task_timeout:.1f}s)"
            )
        if "exc" in box:
            raise box["exc"]
        return box["run"]

    def _retry_or_fail(self, job, shard_index, exc):
        """Spend one of the job's task retries, or fail it durably."""
        error = f"{type(exc).__name__}: {exc}"
        with self._lock:
            attempts = job.attempts.get(shard_index, 0) + 1
            job.attempts[shard_index] = attempts
            retry = attempts <= self.task_retries and job.state != "failed"
        if not retry:
            self._fail(job, exc)
            return
        self._bump("task_retries")
        delay = backoff_s(attempts)
        _log.warning(
            "job %s shard %d failed (%s); retry %d/%d in %.2fs",
            job.job_id, shard_index, error, attempts, self.task_retries, delay,
        )
        self._event(
            job.root, "shard_retry",
            shard=shard_index, attempt=attempts, error=error,
        )
        time.sleep(delay)
        self._queue.put((job.job_id, shard_index))

    def _merge(self, job):
        """Fold the job's store into the served document (the last mile)."""
        merged = merge_store(job.store_root)
        spec = merged.manifest["workload"]
        payload = dse_result_payload(
            spec.get("model"),
            spec.get("sparsity"),
            merged.manifest["evaluator"]["name"],
            {name: tuple(vs) for name, vs in merged.manifest["grid"].items()},
            merged.points,
            frontier=merged.frontier,
        )
        self.cache.store(job.job_id, to_json(payload))
        with self._lock:
            job.state = "done"
            self._bump("jobs_completed")
        self._note_transition(
            job,
            "done",
            points=len(merged.points),
            frontier=len(merged.frontier),
            duplicates=merged.duplicates,
        )
        self._drop(job)

    def _fail(self, job, exc):
        """Fail the job durably; concurrent callers past the first return."""
        error = f"{type(exc).__name__}: {exc}"
        with self._lock:
            if job.state == "failed":
                return
            job.state = "failed"
            job.error = error
            self._bump("jobs_failed")
        _log.error("job %s failed: %s", job.job_id, error)
        text = json.dumps({"error": error, "t": time.time()}) + "\n"
        publish(job.root / ERROR_NAME, text, exclusive=False)
        self._note_transition(job, "failed", error=error)
        self._drop(job)

    def _drop(self, job):
        """Forget a finished job, once its outcome and event are durable.

        From here on lookups read its directory.  A failed job that an
        identical re-submission has already re-queued is a new entry,
        which stays.
        """
        with self._lock:
            if self._jobs.get(job.job_id) is job:
                del self._jobs[job.job_id]

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def _live(self, job_id):
        """``job_id``'s table entry, or ``None`` if it is not live.

        Only a well-formed id (16 lowercase hex characters) gets past
        here, so no other string is ever joined to a path.
        """
        if not isinstance(job_id, str) or not _JOB_ID.fullmatch(job_id):
            raise UnknownJobError(job_id)
        with self._lock:
            return self._jobs.get(job_id)

    def _get(self, job_id) -> JobState:
        """A live job from the table, or a finished one from its dir."""
        job = self._live(job_id)
        return job if job is not None else self._read(job_id)

    def _read(self, job_id) -> JobState:
        """A job outside the table, as its directory records it.

        A directory without ``store/MANIFEST.json`` is not a job.
        ``result.json`` makes it done and ``error.json`` failed; a
        manifest the store's check refuses
        (:meth:`~repro.dist.store.ResultStore.check_manifest`) reads as
        failed with the reason.  Any other directory is not this
        manager's job — it was never resumed — unless an identical
        re-submission re-queued it since the table was read, and then
        the new entry answers.
        """
        root = self.jobs_root / job_id
        store = ResultStore(root / STORE_NAME)
        try:
            manifest = json.loads(store.manifest_path.read_text())
        except (FileNotFoundError, NotADirectoryError):
            raise UnknownJobError(job_id) from None
        if self.cache.result_path(job_id).is_file():
            return JobState(job_id, manifest, root, "done")
        try:
            error = json.loads((root / ERROR_NAME).read_text()).get("error")
        except FileNotFoundError:
            try:
                store.check_manifest(manifest)
            except (StoreError, ValueError) as exc:
                error = str(exc)
            else:
                job = self._live(job_id)
                if job is None:
                    raise UnknownJobError(job_id) from None
                return job
        return JobState(job_id, manifest, root, "failed", error=error)

    def jobs(self) -> list:
        """Brief submission info for every job directory (listing endpoint).

        Live jobs answer from the table and finished ones from their
        directories, so the listing reads the data dir.  Jobs come in
        submission order: the time of each one's first event.
        """
        jobs = []
        for job_dir in sorted(self.jobs_root.iterdir()):
            try:
                jobs.append(self._get(job_dir.name))
            except UnknownJobError:
                continue  # not a job directory, or one never resumed
        return [
            self._submit_info(job, cache_hit=False, created=False)
            for job in sorted(jobs, key=self._submitted_at)
        ]

    @staticmethod
    def _submitted_at(job) -> float:
        """The ``t`` of the job's first (``submitted``) event."""
        for event in iter_jsonl(job.root / EVENTS_NAME):
            return event["t"]
        return 0.0

    def _done_points(self, job):
        """The point count of the job's ``done`` event, or ``None`` when a
        crash fell between ``result.json`` and that append.

        The first one: every cache hit appends an event after it, and a
        re-run after a lost ``result.json`` merges the same records.
        """
        for event in iter_jsonl(job.root / EVENTS_NAME):
            if event.get("event") == "done":
                return event.get("points")
        return None

    def status(self, job_id) -> dict:
        """One job's progress, read without touching an evaluator.

        A live (or failed) job's ``done``/``scored``/``failed_points``/
        ``eta_seconds`` come from :func:`repro.dist.store_status` over
        its completion records, so the numbers advance while shards run.
        A done job's come from the counts its durable ``done`` event
        recorded: every grid point is done, and no ledger is read.
        """
        job = self._get(job_id)
        spec = job.manifest["workload"]
        info = {
            "id": job.job_id,
            "state": job.state,
            "evaluator": job.manifest["evaluator"]["name"],
            "model": spec.get("model"),
            "sparsity": spec.get("sparsity"),
            "n_shards": job.n_shards,
            "grid_size": job.grid_size,
            "cached": job.state == "done",
        }
        if job.error:
            info["error"] = job.error
        points = self._done_points(job) if job.state == "done" else None
        if points is not None:
            info.update(
                done=info["grid_size"],
                scored=points,
                failed_points=info["grid_size"] - points,
                fraction_done=1.0,
                eta_seconds=0.0,
            )
            return info
        try:
            progress = store_status(job.store_root)
        except (StoreError, ValueError):  # no store yet, or a refused one
            info.update(
                done=0,
                scored=0,
                failed_points=0,
                fraction_done=0.0,
                eta_seconds=None,
            )
            return info
        info.update(
            done=progress.done,
            scored=progress.scored,
            failed_points=progress.failed,
            fraction_done=progress.fraction_done,
            eta_seconds=progress.eta_seconds,
        )
        return info

    def events(self, job_id) -> list:
        """The job's durable lifecycle timeline, oldest record first.

        Decoded from ``events.jsonl`` — submitted/queued/running,
        per-shard start/finish, merging, done or failed, plus cache hits
        and dedups landing on this job.  Torn-tail tolerant like every
        store in this repo; raises :class:`UnknownJobError` for ids this
        data dir has never seen.
        """
        job = self._get(job_id)
        return EventLog(job.root / EVENTS_NAME).read()

    def results(self, job_id):
        """``(text, partial)`` — the rendered results document.

        A finished job serves its cached document *verbatim*, straight
        from ``result.json`` (the bytes are the contract: byte-identical
        to ``python -m repro dse --json`` on the same study).  An
        unfinished job streams a partial document decoded from the
        completion records written so far — scored points in grid order,
        marked ``"partial": true`` with done/grid-size counters.  A failed
        job raises :class:`JobFailedError`.
        """
        job = self._live(job_id)
        if job is None or job.state != "failed":
            cached = self.cache.lookup(job_id)
            if cached is not None:
                return cached, False
        if job is None:
            job = self._read(job_id)
        if job.state == "failed":
            raise JobFailedError(job.error or "job failed")
        points, recorded = scored_so_far(job.store_root)

        def point_dicts():
            for index, point in points.indexed():
                yield {
                    "index": index,
                    "parameters": dict(point.parameters),
                    "seconds": point.seconds,
                    "energy_joules": point.energy_joules,
                    "edp": point.edp,
                }

        payload = {
            "partial": True,
            "state": job.state,
            "evaluator": job.manifest["evaluator"]["name"],
            "grid_size": job.grid_size,
            "done": recorded,
            "points": LazyArray(point_dicts, len(points)),
        }
        return to_json(payload), True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def resume(self) -> list:
        """Re-enqueue every unfinished job directory (server startup).

        A directory with a ``result.json`` or an ``error.json`` is
        finished: it is not opened, and lookups answer from it (an
        identical re-submission retries a failed one).  One without
        ``store/MANIFEST.json`` is not a job.  A manifest that
        :meth:`~repro.dist.store.ResultStore.read_manifest` refuses
        (another schema, or a grid or evaluator name this version cannot
        score) stays off the queue, and lookups answer failed with that
        message.  Anything else goes back on the queue — its shards skip
        every recorded index, so only the genuinely missing work re-runs.
        Returns the ids it queued.
        """
        resumed = []
        if not self.jobs_root.is_dir():
            return resumed
        for job_dir in sorted(self.jobs_root.iterdir()):
            job_id = job_dir.name
            if (
                not _JOB_ID.fullmatch(job_id)
                or self.cache.result_path(job_id).is_file()
                or (job_dir / ERROR_NAME).is_file()
            ):
                continue
            try:
                manifest = ResultStore(job_dir / STORE_NAME).read_manifest()
            except (StoreError, ValueError):
                continue
            with self._lock:
                if job_id in self._jobs:
                    continue
                self._event(job_dir, "resumed")
                self._enqueue(job_id, manifest)
                resumed.append(job_id)
        return resumed

    def stop(self, timeout=10.0):
        """Stop the worker threads (queued tasks stay durable on disk)."""
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []
