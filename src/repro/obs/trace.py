"""Chrome trace-event output: spans as ``X`` events, Perfetto-viewable.

``python -m repro dse --trace out.json`` installs a :class:`ChromeTrace`
on the default registry; every :class:`repro.obs.registry.Span` then adds
one complete (``"ph": "X"``) event, and the collector writes the
`trace-event format`_ JSON that https://ui.perfetto.dev and
``chrome://tracing`` load directly.

Timestamps are microseconds relative to the collector's creation (the
format's convention), taken from the same ``time.perf_counter`` clock the
spans measure with — span durations in the trace equal the histogram
observations exactly.

.. _trace-event format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from .registry import get_registry

__all__ = ["ChromeTrace", "tracing"]


class ChromeTrace:
    """Thread-safe collector of trace events for one process."""

    def __init__(self):
        self._lock = threading.Lock()
        self._events = []
        self.epoch = perf_counter()

    def add_complete(self, name, start_s, duration_s, args=None):
        """One ``X`` (complete) event: a span with a start and a length."""
        event = {
            "name": name,
            "cat": "repro",
            "ph": "X",
            "ts": (start_s - self.epoch) * 1e6,
            "dur": duration_s * 1e6,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        if args:
            event["args"] = dict(args)
        with self._lock:
            self._events.append(event)

    @property
    def events(self) -> list:
        with self._lock:
            return list(self._events)

    def to_dict(self) -> dict:
        events = sorted(self.events, key=lambda event: event["ts"])
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict()) + "\n")
        return path


@contextmanager
def tracing(path=None, registry=None):
    """Install a tracer on ``registry`` for the ``with`` body.

    Yields the :class:`ChromeTrace`; on exit the previous tracer comes
    back and, when ``path`` is given, the trace file is written.  Works
    on the *disabled* default registry too — spans fire for the tracer
    without turning metrics collection on.
    """
    registry = registry if registry is not None else get_registry()
    tracer = ChromeTrace()
    previous = registry.tracer
    registry.tracer = tracer
    try:
        yield tracer
    finally:
        registry.tracer = previous
        if path is not None:
            tracer.write(path)
