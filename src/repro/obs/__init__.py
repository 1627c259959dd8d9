"""Full-stack telemetry: metrics, spans, traces, event streams, logging.

One stdlib-only subsystem feeding three surfaces:

* ``GET /metrics`` — the default registry rendered in Prometheus text
  exposition format (:mod:`.prometheus`);
* ``GET /jobs/<id>/events`` — durable per-job ``events.jsonl`` timelines
  (:mod:`.events`, ledgers written and read by :mod:`repro.ledger`);
* ``python -m repro dse --trace out.json`` — spans as Chrome trace-event
  ``X`` events, viewable in Perfetto (:mod:`.trace`).

The process-global default registry (:mod:`.registry`) starts *disabled*
and is a true no-op until the serve layer (or a test/benchmark) enables
it — instrumentation is everywhere, cost is opt-in.  Telemetry observes
the data path and never alters it: result bytes are bit-identical with
collection on or off.
"""

from .events import EventLog
from .logs import ROOT_LOGGER, configure_logging, get_logger
from .prometheus import CONTENT_TYPE as METRICS_CONTENT_TYPE
from .prometheus import render_metrics
from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Histogram,
    Registry,
    Span,
    counter,
    enable,
    get_registry,
    set_registry,
    span,
    use_registry,
)
from .trace import ChromeTrace, tracing

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "METRICS_CONTENT_TYPE",
    "ROOT_LOGGER",
    "ChromeTrace",
    "Counter",
    "EventLog",
    "Histogram",
    "Registry",
    "Span",
    "configure_logging",
    "counter",
    "enable",
    "get_logger",
    "get_registry",
    "render_metrics",
    "set_registry",
    "span",
    "tracing",
    "use_registry",
]
