"""Turn a traced run's span files into a per-layer time budget.

Each process of the system under test writes ``spans-<pid>.jsonl`` (see
``tracehook/sitecustomize.py``).  Spans of one thread nest like the calls
they wrap, so a span's *self time* is its duration minus its children's.

The budget answers "where did the end-to-end time go": the windows are
the client-side units of work (studies, or sweeps from launch to merged
JSON), and every instant inside a window is charged to the layers whose
self time is running then, split evenly when several threads or
processes run at once.  A supervisor that only waits (``run_fleet``) is
charged only when nothing else runs.  Window time with no span running
at all — interpreter start before the hook, HTTP plumbing outside the
handlers, network and client time — is the *unexplained* remainder.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .common import median

#: Wrapped entry point -> the repo module (layer) it belongs to.
LAYER_OF = {
    "serve.app.GET": "serve.app",
    "serve.app.POST": "serve.app",
    "JobManager.submit": "serve.jobs",
    "ResultCache.lookup": "serve.cache",
    "ResultCache.store": "serve.cache",
    "EventLog.append": "obs.events",
    "JsonlAppender.append": "dist.store",
    "JsonlAppender.close": "dist.store",
    "ResultStore.load_records": "dist.store",
    "run_shard": "dist.runner",
    "merge_store": "dist.merge",
    "store_status": "dist.merge",
    "run_fleet": "dist.fleet",
    "pareto_frontier": "harness.dse",
    "evaluate_batch": "hw.cycle_sim",
    "cached_model_workload": "perf.cache",
    "to_json": "harness.serialization",
    "python.startup": "python.startup",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))
#: Spans that mostly wait on other processes.
WAITING = {"run_fleet"}
#: Spans counted against their caller's layer, not one of their own.
TRANSPARENT = {"os.fsync"}


@dataclass
class Span:
    name: str
    pid: int
    tid: int
    start: float
    end: float
    extra: object = None
    parent: "Span" = None
    fsyncs: int = 0

    @property
    def duration(self):
        return self.end - self.start

    def ancestor(self, name):
        """The nearest enclosing span named ``name``, or ``None``."""
        node = self.parent
        while node is not None and node.name != name:
            node = node.parent
        return node


@dataclass
class Trace:
    spans: list = field(default_factory=list)
    processes: dict = field(default_factory=dict)  # pid -> header
    segments: list = field(default_factory=list)  # (start, end, span)

    def named(self, name, windows=None):
        found = [s for s in self.spans if s.name == name]
        if windows is not None:
            found = [s for s in found if in_windows(s.start, windows)]
        return found


def recorded(trace: Trace, pids) -> tuple:
    """Shape guard: every traced process in ``pids`` wrote its spans.

    A recorder that fails to install (a renamed entry point, say) only
    makes Python print "Error in sitecustomize" and run on untraced.
    """
    missing = sorted(set(pids) - set(trace.processes))
    return (f"every traced process wrote spans (missing pids: {missing})",
            not missing)


def in_windows(t, windows):
    """Whether ``t`` falls in one of ``windows`` (sorted, disjoint)."""
    i = bisect.bisect_right(windows, (t, math.inf)) - 1
    return i >= 0 and windows[i][0] <= t <= windows[i][1]


def load(trace_dir: Path) -> Trace:
    trace = Trace()
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        pid = header["pid"]
        trace.processes[pid] = header
        threads = {}
        for line in lines[1:]:
            name, tid, start, end, extra = json.loads(line)
            threads.setdefault(tid, []).append(Span(name, pid, tid, start, end, extra))
        for spans in threads.values():
            trace.segments.extend(_nest(spans))
            trace.spans.extend(s for s in spans if s.name not in TRANSPARENT)
    return trace


def _nest(spans):
    """Link parents within one thread; return its self-time segments."""
    spans.sort(key=lambda s: (s.start, -s.end))
    segments, stack = [], []
    cursor = None

    def pop_until(t):
        nonlocal cursor
        while stack and stack[-1].end <= t:
            top = stack.pop()
            segments.append((cursor, top.end, top))
            cursor = top.end

    for span in spans:
        pop_until(span.start)
        if span.name in TRANSPARENT:
            if stack:
                stack[-1].fsyncs += 1
            continue
        span.parent = stack[-1] if stack else None
        if stack:
            segments.append((cursor, span.start, stack[-1]))
        stack.append(span)
        cursor = span.start
    pop_until(float("inf"))
    return [(a, b, s) for a, b, s in segments if b > a]


def budget(trace: Trace, windows) -> dict:
    """Per-layer self time and share of the windows' total time.

    Returns ``{"total_s", "unexplained_s", "layers": {layer: {count,
    self_s, share}}}``; ``self_s`` is thread time (concurrent threads add
    up), ``share`` is the layer's part of window wall time.
    """
    windows = sorted(windows)
    events = []
    for a, b in windows:
        events.append((a, 0, None))
        events.append((b, 0, None))
    for start, end, span in trace.segments:
        events.append((start, 1, span))
        events.append((end, -1, span))
    events.sort(key=lambda e: (e[0], e[1]))
    active, waiting = {}, {}
    raw = {layer: 0.0 for layer in LAYERS}
    share = {layer: 0.0 for layer in LAYERS}
    unexplained = 0.0
    inside = False
    now = events[0][0] if events else 0.0
    for t, delta, span in events:
        dt = t - now
        if inside and dt > 0:
            pool = active or waiting
            total = sum(pool.values())
            if total:
                for layer, n in pool.items():
                    share[layer] += dt * n / total
            else:
                unexplained += dt
            for layer, n in active.items():
                raw[layer] += dt * n
            for layer, n in waiting.items():
                raw[layer] += dt * n
        now = t
        if span is None:
            inside = not inside
            continue
        pool = waiting if span.name in WAITING else active
        layer = LAYER_OF.get(span.name, span.name)
        pool[layer] = pool.get(layer, 0) + delta
        if not pool[layer]:
            del pool[layer]
    total = sum(b - a for a, b in windows) or 1.0
    counts = {layer: 0 for layer in LAYERS}
    for span in trace.spans:
        if in_windows(span.start, windows):
            layer = LAYER_OF.get(span.name, span.name)
            counts[layer] = counts.get(layer, 0) + 1
    return {
        "total_s": total,
        "unexplained_s": unexplained,
        "layers": {
            layer: {
                "count": counts.get(layer, 0),
                "self_s": raw.get(layer, 0.0),
                "share": share.get(layer, 0.0) / total,
            }
            for layer in LAYERS
        },
    }


def format_budget(title, result) -> list:
    lines = [
        f"traced budget: {title} ({result['total_s']:.3f} s of end-to-end time)",
        f"  {'layer':24s} {'count':>8s} {'self ms':>11s} {'share':>8s}",
    ]
    for layer, row in result["layers"].items():
        lines.append(
            f"  {layer:24s} {row['count']:8d} {1e3 * row['self_s']:11.1f} "
            f"{100 * row['share']:7.2f}%"
        )
    lines.append(
        f"  {'(unexplained)':24s} {'':8s} {1e3 * result['unexplained_s']:11.1f} "
        f"{100 * result['unexplained_s'] / result['total_s']:7.2f}%"
    )
    return lines


def _grouped_sum(children, parent_name):
    """Sum child durations per enclosing ``parent_name`` span."""
    totals = {}
    for span in children:
        parent = span.ancestor(parent_name)
        if parent is not None:
            totals[id(parent)] = totals.get(id(parent), 0.0) + span.duration
    return list(totals.values())


def span_metrics(trace: Trace, windows, units: int) -> dict:
    """The per-layer metrics read off spans inside ``windows``.

    Durations are medians per call; counts are per unit of work (study
    or sweep).  A shard's set-up runs from its start — the process start
    for a ``dse-shard`` subprocess, the ``run_shard`` call for a served
    shard — to its first ``evaluate_batch``.
    """
    def med(name, scale):
        return scale * median([s.duration for s in trace.named(name, windows)])

    batches = trace.named("evaluate_batch", windows)
    shards = trace.named("run_shard", windows)
    per_shard = {}
    for batch in batches:
        shard = batch.ancestor("run_shard")
        if shard is not None:
            per_shard.setdefault(id(shard), (shard, []))[1].append(batch)
    setups, walks = [], []
    for shard, mine in per_shard.values():
        process = trace.processes[shard.pid]
        start = process["start"] if "dse-shard" in process["argv"] else shard.start
        setups.append(min(b.start for b in mine) - start)
        walks.append(sum(b.duration for b in mine))
    walk_total = sum(b.duration for b in batches)
    shard_total = sum(s.duration for s in shards)
    store_spans = [
        s for s in trace.spans
        if LAYER_OF.get(s.name) == "dist.store" and in_windows(s.start, windows)
    ]
    merge_loads = _grouped_sum(trace.named("ResultStore.load_records", windows),
                               "merge_store")
    builds = [s for s in trace.named("cached_model_workload") if s.extra]
    misses = sum(s.extra for s in trace.named("cached_model_workload", windows))
    points = sum(b.extra for b in batches)
    return {
        "serve.jobs.submit_ms": med("JobManager.submit", 1e3),
        "serve.cache.lookup_ms": med("ResultCache.lookup", 1e3),
        "obs.events.append_ms": med("EventLog.append", 1e3),
        "dist.runner.shard_setup_s": median(setups),
        "dist.runner.walk_s": median(walks),
        "dist.store.append_us": med("JsonlAppender.append", 1e6),
        "dist.store.fsyncs": sum(s.fsyncs for s in store_spans) / units,
        "dist.merge.merge_s": med("merge_store", 1.0),
        "dist.merge.load_s": median(merge_loads),
        "dist.merge.store_status_ms": med("store_status", 1e3),
        "harness.dse.chunks": len(batches) / units,
        "harness.dse.pareto_ms": med("pareto_frontier", 1e3),
        "hw.cycle_sim.us_per_point": 1e6 * walk_total / points if points else 0.0,
        "hw.cycle_sim.share": walk_total / shard_total if shard_total else 0.0,
        "perf.cache.build_s": median([s.duration for s in builds]),
        "perf.cache.misses": misses / units,
        "harness.serialization.render_ms": med("to_json", 1e3),
    }


def budget_metrics(result) -> dict:
    """``<layer>.share_pct`` for every layer plus the unexplained share."""
    metrics = {
        f"{layer}.share_pct": 100.0 * row["share"]
        for layer, row in result["layers"].items()
    }
    unexplained = result["unexplained_s"] / result["total_s"]
    metrics["trace.unexplained_pct"] = 100.0 * unexplained
    return metrics
