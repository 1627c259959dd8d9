"""Durable per-job event streams: append-only, torn-tail-tolerant JSONL.

Each served job gets one ``events.jsonl`` in its directory; every
lifecycle step (submitted, queued, running, shard_started, …, done)
appends one record ``{"t": unix_seconds, "event": kind, ...fields}``.
The stream is the timeline source for ``GET /jobs/<id>/events`` and any
load-test harness reconstructing per-job latency breakdowns.

The file is a :mod:`repro.ledger` ledger like the dist store's: each
append is fsynced before :meth:`EventLog.append` returns, and
:meth:`EventLog.read` drops a torn final line but raises
:class:`repro.ledger.StoreCorruptError` on corruption before it — silent
data loss in the middle of a timeline would lie about job history.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..ledger import append_once, load_jsonl

__all__ = ["EventLog"]


class EventLog:
    """One append-only JSONL event stream (usually a job's timeline)."""

    def __init__(self, path):
        self.path = Path(path)

    def append(self, event: dict) -> dict:
        """Durably append one record; returns it for convenience."""
        line = json.dumps(event, sort_keys=True, allow_nan=False)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        append_once(self.path, line + "\n")
        return event

    def read(self) -> list:
        """Every intact record, in order; ``[]`` for a missing stream."""
        return load_jsonl(self.path)
