"""Content-addressed result cache keyed by the store's manifest fingerprint.

A job's identity IS its study's content: the result-store manifest
(:func:`repro.dist.build_manifest`) already pins everything that
determines a sweep's output — the grid, the evaluator spec, the base
hardware config, and the workload recipe *including its structural
fingerprint*.  :func:`study_fingerprint` hashes the manifest's canonical
JSON minus the execution-detail fields (shard count, weight vector —
sharding never changes the merged result, which the dist layer's
bit-exactness guarantees make true by construction), and that digest is
the job id.

Two consequences fall out for free:

* **deduplication** — POSTing a study that is already queued or running
  lands on the same job directory (the exclusive publish of its store's
  ``MANIFEST.json`` is the arbiter), so a stampede of identical requests
  costs one evaluation;
* **content-addressed caching** — POSTing a study that already finished
  finds its rendered ``result.json`` under the same id and returns it
  instantly with ``cache_hit: true``, without touching an evaluator.

The cache is durable and self-contained: each entry is the rendered
results document (exactly the bytes ``GET /jobs/<id>/results`` serves,
byte-identical to ``python -m repro dse --json`` on the same study),
written atomically next to the job's store so a server restart — or a
different server pointed at the same data dir — inherits it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ..ledger import publish

__all__ = ["EXECUTION_KEYS", "study_fingerprint", "ResultCache"]

#: Manifest fields that describe *how* a study runs, not *what* it
#: computes — excluded from the fingerprint so re-submitting the same
#: study with a different shard count is still the same job.
EXECUTION_KEYS = ("num_shards", "weights")

RESULT_NAME = "result.json"


def study_fingerprint(manifest: dict) -> str:
    """Digest of a study's content: the manifest minus execution details.

    Canonical JSON (sorted keys, no whitespace) makes the digest stable
    across hosts and dict orderings; 16 hex chars (64 bits) is plenty for
    a job namespace while staying readable in URLs and directory names.
    """
    payload = {
        key: value for key, value in manifest.items() if key not in EXECUTION_KEYS
    }
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


class ResultCache:
    """Finished-study documents, one ``result.json`` per job directory."""

    def __init__(self, jobs_root):
        self.jobs_root = Path(jobs_root)

    def result_path(self, job_id: str) -> Path:
        return self.jobs_root / job_id / RESULT_NAME

    def lookup(self, job_id: str):
        """The rendered results text for ``job_id``, or ``None``."""
        path = self.result_path(job_id)
        try:
            return path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None

    def store(self, job_id: str, text: str) -> Path:
        """Atomically publish a finished study's rendered results.

        A replace-publish (:func:`repro.ledger.publish`): a reader (or a
        crashed writer's successor) sees either no entry or a complete
        one, never a torn document — the presence of ``result.json`` is
        what marks a job *done* across restarts.
        """
        path = self.result_path(job_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        publish(path, text, exclusive=False)
        return path
