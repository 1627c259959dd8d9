"""Span recorder for the benchmark's traced runs.

Python imports ``sitecustomize`` at start-up from the first directory on
its path that has one.  The benchmark puts this directory on
``PYTHONPATH`` only for the processes of a traced run — the server, the
fleet supervisor, the shard subprocesses it spawns (they inherit the
environment) and ``dse-merge`` — and names an output directory in
``PERFBENCH_TRACE_DIR``.  Untraced runs never see this file.

The hook wraps the public entry points of each layer with a timer,
keeps the spans in memory and writes them when the process exits
(``atexit``; the server's SIGTERM drain exits normally).  One file per
process, ``spans-<pid>.jsonl``: a header line, then one
``[name, thread, start, end, extra]`` list per call, wall-clock seconds.
Nothing inside the program changes; results stay byte-identical.
"""

import os

_OUT = os.environ.get("PERFBENCH_TRACE_DIR")


def _process_start() -> float:
    """Wall-clock start of this process, from ``/proc`` (10 ms ticks)."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/stat") as fh:
        boot = next(int(line.split()[1]) for line in fh if line.startswith("btime"))
    return boot + start_ticks / os.sysconf("SC_CLK_TCK")


def _install(out_dir):
    import atexit
    import functools
    import importlib
    import json
    import sys
    import threading
    import time

    started = _process_start()
    spans = []
    clock = time.time
    ident = threading.get_ident

    def timed(fn, name, extra=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((name, ident(), t0, clock(), None))
                raise
            spans.append(
                (name, ident(), t0, clock(), extra(args, result) if extra else None)
            )
            return result

        return wrapper

    def patch_function(module, attr, extra=None):
        """Rebind every ``repro`` module's reference to one function."""
        original = getattr(importlib.import_module(module), attr)
        wrapped = timed(original, attr, extra)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("repro") and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)

    def patch_method(module, cls, attr, name=None, extra=None):
        owner = getattr(importlib.import_module(module), cls)
        setattr(owner, attr,
                timed(getattr(owner, attr), name or f"{cls}.{attr}", extra))

    # Importing the CLI first loads the same modules the program would.
    importlib.import_module("repro.cli")
    for module in (
        "repro.serve.app",
        "repro.serve.jobs",
        "repro.dist.fleet",
        "repro.dist.merge",
        "repro.perf.cache",
    ):
        importlib.import_module(module)

    cache = importlib.import_module("repro.perf.cache").workload_cache
    misses = {"seen": cache.stats().misses}

    def workload_miss(args, result):
        now = cache.stats().misses
        built, misses["seen"] = now - misses["seen"], now
        return built

    patch_method("repro.serve.app", "_Handler", "do_GET", "serve.app.GET")
    patch_method("repro.serve.app", "_Handler", "do_POST", "serve.app.POST")
    for module, cls, attr in (
        ("repro.serve.jobs", "JobManager", "submit"),
        ("repro.serve.cache", "ResultCache", "lookup"),
        ("repro.serve.cache", "ResultCache", "store"),
        ("repro.obs.events", "EventLog", "append"),
        ("repro.dist.store", "JsonlAppender", "append"),
        ("repro.dist.store", "JsonlAppender", "close"),
        ("repro.dist.store", "ResultStore", "load_records"),
    ):
        patch_method(module, cls, attr)
    for cls in ("BatchedCycleSimEvaluator", "BatchedAnalyticalEvaluator"):
        patch_method(
            "repro.sim.evaluator", cls, "evaluate_batch", "evaluate_batch",
            extra=lambda args, result: len(result),
        )
    for module, attr in (
        ("repro.dist.runner", "run_shard"),
        ("repro.dist.merge", "merge_store"),
        ("repro.dist.merge", "store_status"),
        ("repro.dist.fleet", "run_fleet"),
        ("repro.harness.dse", "pareto_frontier"),
    ):
        patch_function(module, attr)
    patch_function("repro.perf.cache", "cached_model_workload", extra=workload_miss)
    patch_function("repro.harness.serialization", "to_json",
                   extra=lambda args, result: len(result))
    os.fsync = timed(os.fsync, "os.fsync")
    spans.append(("python.startup", ident(), started, clock(), None))

    def dump():
        path = os.path.join(out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "w") as fh:
            header = {"pid": os.getpid(), "argv": sys.argv, "start": started}
            fh.write(json.dumps(header) + "\n")
            for span in list(spans):
                fh.write(json.dumps(span) + "\n")

    atexit.register(dump)


if _OUT:
    _install(_OUT)
