"""Thread-safe telemetry primitives: counters, histograms, spans.

The registry is the single in-process metrics source every layer of the
repo reports into (DSE engine, dist shards, serve).  Design rules:

* **Stdlib only.**  No Prometheus client, no external deps — rendering
  lives in :mod:`repro.obs.prometheus`, collection here.
* **Disabled is free.**  The process-global default registry starts
  *disabled*: every accessor then returns a shared inert singleton, so an
  instrumented hot path pays one attribute check and nothing else (the
  ``obs_overhead`` benchmark asserts this stays < 3%).  The serve layer
  enables it; CLI tracing installs a tracer without enabling metrics.
* **Observe, never alter.**  Nothing in this module touches evaluator
  results — telemetry must leave result bytes bit-identical.

Spans extend :class:`repro.perf.timing.Timer` (the benchmark stopwatch):
a span is a Timer that, on exit, feeds a ``<name>_seconds`` histogram
and, when a tracer is installed, a Chrome trace-event (see
:mod:`repro.obs.trace`).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from math import inf

from ..perf.timing import Timer

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Histogram",
    "Span",
    "Registry",
    "get_registry",
    "set_registry",
    "use_registry",
    "enable",
    "counter",
    "span",
]

#: Fixed latency buckets (seconds).  Fixed — not adaptive — so two runs'
#: histograms are always mergeable and the Prometheus rendering is stable.
DEFAULT_LATENCY_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class Counter:
    """A monotonically increasing value (events since process start)."""

    kind = "counter"

    def __init__(self, name, labels=(), help=""):
        self.name = name
        self.labels = tuple(labels)
        self.help = help
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self):
        return self._value


class Histogram:
    """Fixed-bucket distribution (count, sum and buckets).

    Buckets are cumulative-``le`` at render time (Prometheus semantics);
    internally each bucket holds its own count so :meth:`observe` is one
    ``bisect`` plus three adds under the lock.
    """

    kind = "histogram"

    def __init__(self, name, labels=(), help="", buckets=DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        self.name = name
        self.labels = tuple(labels)
        self.help = help
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # final slot: the +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value):
        value = float(value)
        with self._lock:
            self._counts[bisect_left(self.bounds, value)] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self):
        return self._count

    @property
    def sum(self):
        return self._sum

    def cumulative_buckets(self):
        """``[(upper_bound, cumulative_count)]`` ending at ``(inf, count)``."""
        with self._lock:
            counts = list(self._counts)
        out, cumulative = [], 0
        for bound, count in zip(self.bounds + (inf,), counts):
            cumulative += count
            out.append((bound, cumulative))
        return out


class _NoopMetric:
    """Absorbs every metric operation; shared by all disabled call sites."""

    __slots__ = ()

    def inc(self, amount=1):
        pass

    def observe(self, value):
        pass


class _NoopSpan:
    """A ``with``-compatible span that measures nothing."""

    __slots__ = ()
    seconds = 0.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NOOP_METRIC = _NoopMetric()
NOOP_SPAN = _NoopSpan()


class Span(Timer):
    """A timed region: a :class:`Timer` that reports where it went.

    On exit the elapsed time lands in a ``<name>_seconds`` histogram
    (when the registry is enabled) and, when a tracer is installed, as a
    Chrome trace-event ``X`` span — so the same ``with`` block feeds both
    ``/metrics`` and ``--trace out.json``.
    """

    def __init__(self, registry, name, trace_args=None):
        super().__init__()
        self._registry = registry
        self.name = name
        self._trace_args = trace_args

    def __exit__(self, *exc):
        super().__exit__(*exc)
        registry = self._registry
        if registry.enabled:
            registry.histogram(f"{self.name}_seconds").observe(self.seconds)
        tracer = registry.tracer
        if tracer is not None:
            tracer.add_complete(self.name, self._start, self.seconds, self._trace_args)
        return False


class Registry:
    """Get-or-create metric store; one per process is the normal shape.

    Metrics are keyed by ``(name, sorted label items)``; a name maps to
    exactly one kind (mixing kinds under one name raises).  When
    ``enabled`` is ``False`` every accessor returns the shared no-op
    singleton without touching the store.
    """

    def __init__(self, enabled=True):
        self.enabled = bool(enabled)
        self.tracer = None  # a ChromeTrace, or None
        self._lock = threading.Lock()
        self._metrics = {}
        self._kinds = {}

    # -- get-or-create -------------------------------------------------
    def _get_or_create(self, cls, name, labels, help, **kwargs):
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                kind = self._kinds.get(name)
                if kind is not None and kind != cls.kind:
                    raise ValueError(
                        f"metric {name!r} already registered as a {kind}, "
                        f"not a {cls.kind}"
                    )
                metric = cls(name, labels=key[1], help=help, **kwargs)
                self._metrics[key] = metric
                self._kinds[name] = cls.kind
            elif metric.kind != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as a {metric.kind}, "
                    f"not a {cls.kind}"
                )
            return metric

    def counter(self, name, help="", **labels) -> Counter:
        if not self.enabled:
            return NOOP_METRIC
        return self._get_or_create(Counter, name, labels, help)

    def histogram(self, name, help="", buckets=None, **labels) -> Histogram:
        if not self.enabled:
            return NOOP_METRIC
        return self._get_or_create(
            Histogram, name, labels, help, buckets=buckets or DEFAULT_LATENCY_BUCKETS
        )

    def span(self, name, **trace_args):
        """A live span when metrics or tracing want it, else the no-op."""
        if not self.enabled and self.tracer is None:
            return NOOP_SPAN
        return Span(self, name, trace_args or None)

    # -- introspection -------------------------------------------------
    def get(self, name, **labels):
        """The metric object, or ``None`` if never touched."""
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            return self._metrics.get(key)

    def value(self, name, **labels):
        """Counter value (``None`` if absent) — test convenience."""
        metric = self.get(name, **labels)
        return None if metric is None else metric.value

    def collect(self):
        """``[(name, kind, help, [(labels, metric), ...])]``, name-sorted."""
        with self._lock:
            items = sorted(self._metrics.items())
        families = {}
        for (name, labels), metric in items:
            families.setdefault(name, []).append((labels, metric))
        out = []
        for name, children in sorted(families.items()):
            help_ = next((m.help for _, m in children if m.help), "")
            out.append((name, children[0][1].kind, help_, children))
        return out



# ----------------------------------------------------------------------
# The process-global default registry.  Disabled until someone (the serve
# layer, a test, a benchmark) opts in; instrumented modules always go
# through these module functions so a registry swap is seen everywhere.
# ----------------------------------------------------------------------
_default = Registry(enabled=False)


def get_registry() -> Registry:
    return _default


def set_registry(registry: Registry) -> Registry:
    """Swap the default registry; returns the previous one."""
    global _default
    previous = _default
    _default = registry
    return previous


@contextmanager
def use_registry(registry: Registry):
    """Scoped registry swap — how tests and benchmarks isolate counts."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def enable():
    _default.enabled = True


def counter(name, help="", **labels):
    return _default.counter(name, help=help, **labels)


def span(name, **trace_args):
    return _default.span(name, **trace_args)
