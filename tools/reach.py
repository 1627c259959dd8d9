"""Reachability check: ``src/`` holds only what the product reaches.

Run from anywhere (it finds the repository from its own path)::

    python tools/reach.py

The roots are the product: every CLI command, the served HTTP API (the
``serve`` command driven through ``ServeClient``), the paper benchmarks
(``benchmarks/``), the perf benchmarks in smoke mode (``benchmarks/perf``)
and every ``examples/*.py``.  Each root group runs in its own child
interpreter under a ``sys.setprofile`` + ``threading.setprofile``
recorder that keeps every code object it sees called; the tool unions the
groups' records and compares them with the function definitions ``ast``
finds under ``src/repro``, keyed by file and ``co_firstlineno`` (the first
decorator's line).

Every function no root reaches is printed.  ``tools/reach-allowlist.txt``
names the ones that stay anyway, one ``path::qualname  reason`` line each,
the reason one of ``oracle``, ``failure path``, ``test hook``,
``protocol``, ``child`` (runs only in a forked child or a signal handler)
or ``api: <user>``.  The check exits nonzero on an unreached function the
allowlist does not name, on a listed function that no longer exists and
on any other reason.  A listed function that a root now reaches is only
reported: a retry path hit by chance must not fail the check.

pytest-benchmark's fixture pauses the profiler around what it times, so
the benchmark groups run with ``--benchmark-disable`` and re-install the
recorder before every test call.
"""

from __future__ import annotations

import ast
import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
ALLOWLIST = Path(__file__).resolve().with_name("reach-allowlist.txt")
REASONS = ("oracle", "failure path", "test hook", "protocol", "child")
GRID = ["--grid", "mac_lines=16,32", "--grid", "ae_compression=none,0.5"]
# In-process runs survive this plan (no kill, no torn write); the forked
# fleet takes the CI chaos storm.
RETRY_PLAN = '{"seed": 7, "evaluator_error_rate": 0.5, "claim_delay_s": 0.01}'
STORM_PLAN = (
    '{"seed": 7, "evaluator_error_rate": 0.5, "torn_write": true, '
    '"fsync_error": true, "kill_after_records": 2}'
)


def _functions(node, prefix=""):
    """``(first line, qualname)`` of every function defined under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            first = child.decorator_list[0] if child.decorator_list else child
            yield first.lineno, name
            yield from _functions(child, name + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, prefix + child.name + ".")
        else:
            yield from _functions(child, prefix)


def definitions():
    """``{(path, first line): qualname}`` of every function in ``src/repro``."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, name in _functions(tree):
            found[rel, line] = name
    return found


# -- the roots (each runs in a child interpreter) -------------------------


def _quiet_main(argv, refused=False):
    """``repro.cli.main(argv)`` with its output dropped.

    A run that should be refused must end in ``SystemExit``; any other
    must return.
    """
    from repro.cli import main

    with open(os.devnull, "w") as sink:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                main(argv)
            except SystemExit:
                if refused:
                    return
                raise
    if refused:
        raise AssertionError(f"repro {' '.join(argv)} was not refused")


def roots_commands():
    from repro.cli import COMMANDS

    # Every command the runs below (and roots_served) do not drive with
    # arguments of their own runs bare with --json: a new figure is a
    # root once it is in the command table.
    driven = {"dse", "dse-shard", "dse-fleet", "dse-merge", "dse-status", "serve"}
    runs = [[name, "--json", f"{name}.json"] for name in COMMANDS if name not in driven]
    runs += [
        ["fig15", "--end-to-end", "--json", "fig15-e2e.json"],
        ["dse", *GRID, "--json", "dse-a.json", "--trace", "trace.json"],
        ["dse", *GRID, "--evaluator", "cycle", "--json", "dse-c.json"],
        # One chunk on both sides of the compute/DRAM crossover, and a
        # swept activation buffer.
        ["dse", "--evaluator", "cycle", "--grid", "mac_lines=16,64"]
        + ["--grid", "bandwidth_gbps=0.5,19.2,3000", "--grid", "act_buffer_kb=128,256"],
        ["dse-shard", "--shard", "1/2", "--out", "s", *GRID, "--steal"],
        ["dse-status", "s", "--stall-after", "1"],
        ["dse-shard", "--shard", "2/2", "--out", "s", *GRID, "--steal"],
        ["dse-status", "s", "--json", "status.json"],
        ["dse-merge", "s", "--json", "merged.json"],
        ["dse-fleet", "--out", "f", "--num-shards", "2", "--steal"]
        + ["--claim-ttl", "2", "--max-restarts", "5", *GRID, "--faults", STORM_PLAN],
        ["dse-merge", "f", "--json", "fleet.json"],
        ["dse", *GRID, "--faults", RETRY_PLAN, "--json", "dse-faults.json"],
    ]
    # Under faults: a shard that retries failed points, and a weighted
    # store whose first shard records them (no retries) and steals the
    # second's slice through delayed claims; the merge drops the failures.
    faulty = [*GRID, "--faults", RETRY_PLAN]
    runs += [
        ["dse-shard", "--shard", "1/1", "--out", "sf", *faulty],
        ["dse-shard", "--shard", "1/2@3,1", "--out", "w", *faulty]
        + ["--steal", "--max-point-retries", "0"],
        ["dse-shard", "--shard", "2/2@3,1", "--out", "w", *faulty],
        ["dse-status", "w"],
        ["dse-merge", "w", "--json", "w.json"],
    ]
    for argv in runs:
        _quiet_main(argv)
    unmodelled = ["--evaluator", "cycle", "--grid", "q_forwarding_hit_rate=0,0.3"]
    _quiet_main(["dse", *unmodelled], refused=True)
    _quiet_main(["dse", "--grid", "mac_lines=16.5"], refused=True)
    _quiet_main(["dse", "--grid", "bogus=1"], refused=True)


def roots_served():
    """``serve`` in this thread, driven over HTTP, drained by SIGTERM."""
    from repro.serve import ServeClient, ServeError

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    failures = []

    def drive():
        try:
            # Wait for the listening socket first, so the client's
            # connection-retry path runs in no root by chance.
            deadline = time.monotonic() + 60
            while True:
                try:
                    socket.create_connection(("127.0.0.1", port), 1).close()
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.1)
            client = ServeClient(f"http://127.0.0.1:{port}")
            client.health()
            base = {"model": "deit-tiny", "n_shards": 2}
            base["grid"] = {"mac_lines": [16, 32], "ae_compression": [None, 0.5]}
            for evaluator in ("analytical", "cycle"):
                job = client.submit({**base, "evaluator": evaluator})["id"]
                client.wait(job, poll=0.05)
                client.status(job)
                client.raw_results(job)
                client.events(job)
            client.submit({**base, "evaluator": "analytical"})
            # A running job's partial document: of its two shards, the
            # first to score hangs a second while the other records.
            hang = {"name": "analytical", "faults": {"evaluator_hang_s": 1.0}}
            job = client.submit({**base, "evaluator": hang})["id"]
            status = client.status(job)
            while not status["scored"] and status["state"] not in ("done", "failed"):
                time.sleep(0.02)
                status = client.status(job)
            client.raw_results(job)
            client.wait(job, poll=0.05)
            client.jobs()
            client.metrics_text()
            try:
                client.submit({**base, "grid": {"mac_lines": [16.5]}})
            except ServeError:
                pass
            else:
                raise AssertionError("the served grid mac_lines=16.5 was accepted")
        except BaseException as exc:  # reported by the main thread
            failures.append(exc)
        finally:
            os.kill(os.getpid(), signal.SIGTERM)

    requests = threading.Thread(target=drive)
    requests.start()
    serve = ["serve", "--port", str(port), "--data-dir", "data", "--verbose"]
    _quiet_main([*serve, "--task-timeout", "120"])
    requests.join()
    if failures:
        raise failures[0]


def _pytest(args):
    import pytest

    profile = sys.getprofile()

    class Reinstall:
        """pytest-benchmark clears the profiler; set it again per test."""

        @pytest.hookimpl(hookwrapper=True)
        def pytest_runtest_call(self, item):
            sys.setprofile(profile)
            threading.setprofile(profile)
            yield

    flags = ["-q", "-p", "no:cacheprovider", "--benchmark-disable"]
    code = pytest.main([*args, *flags], plugins=[Reinstall()])
    if code != 0:
        raise SystemExit(f"pytest {' '.join(args)} exited {code}")


def roots_benchmarks():
    bench = ROOT / "benchmarks"
    _pytest([str(bench), f"--ignore={bench / 'perf'}"])


def roots_perf():
    _pytest([str(ROOT / "benchmarks" / "perf")])


def roots_examples():
    import runpy

    for script in sorted((ROOT / "examples").glob("*.py")):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            runpy.run_path(str(script), run_name="__main__")


GROUPS = {
    "commands": roots_commands,
    "served": roots_served,
    "benchmarks": roots_benchmarks,
    "perf": roots_perf,
    "examples": roots_examples,
}


def child(group, out):
    """Run one root group under the recorder; write what it reached."""
    seen = set()

    def profile(frame, event, arg, add=seen.add):
        add(frame.f_code)

    sys.setprofile(profile)
    threading.setprofile(profile)
    GROUPS[group]()
    sys.setprofile(None)
    threading.setprofile(None)
    prefix = str(PACKAGE) + os.sep
    reached = set()
    for code in seen:
        path = os.path.realpath(code.co_filename)
        if path.startswith(prefix):
            rel = Path(path).relative_to(ROOT).as_posix()
            reached.add((rel, code.co_firstlineno))
    Path(out).write_text(json.dumps(sorted(reached)))


# -- the check -------------------------------------------------------------


def read_allowlist():
    """``({path::qualname: reason}, [problem lines])``."""
    listed, problems = {}, []
    for number, line in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, reason = line.partition(" ")
        reason = reason.strip()
        if reason not in REASONS and not (
            reason.startswith("api: ") and reason[5:].strip()
        ):
            problems.append(f"{ALLOWLIST.name}:{number}: bad reason {reason!r}")
        listed[key] = reason
    return listed, problems


def reach_all():
    """The union of what every root group reaches."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); "
        "import reach; reach.child(*sys.argv[1:])"
    )
    reached = set()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        for group in GROUPS:
            work = Path(tmp) / group
            work.mkdir()
            out, log = work / "reached.json", work / "log.txt"
            cwd = ROOT if group in ("benchmarks", "perf") else work
            started = time.monotonic()
            with open(log, "w") as fh:
                proc = subprocess.run(
                    [sys.executable, "-c", code, group, str(out)],
                    cwd=cwd,
                    env=env,
                    stdout=fh,
                    stderr=subprocess.STDOUT,
                    timeout=1200,
                )
            if proc.returncode != 0:
                print(log.read_text()[-6000:])
                raise SystemExit(
                    f"reach: root group {group!r} exited {proc.returncode}"
                )
            got = {tuple(row) for row in json.loads(out.read_text())}
            print(
                f"{group}: {len(got)} code objects in "
                f"{time.monotonic() - started:.1f} s"
            )
            reached |= got
    return reached


def main():
    defs = definitions()
    listed, problems = read_allowlist()
    reached = reach_all()
    names = {f"{path}::{name}" for (path, _), name in defs.items()}
    unlisted = []
    unreached = sorted(key for key in defs if key not in reached)
    for path, line in unreached:
        key = f"{path}::{defs[path, line]}"
        if key in listed:
            print(f"unreached  {key}  ({listed[key]})")
        else:
            unlisted.append(key)
            print(f"UNLISTED   {key}  (line {line})")
    hit = {f"{p}::{defs[p, n]}" for p, n in defs if (p, n) in reached}
    for key in sorted(listed):
        if key not in names:
            problems.append(f"{key}: listed, but no such function in src/")
        elif key in hit:
            print(f"reached    {key}  (listed as {listed[key]!r})")
    print(
        f"\n{len(defs)} functions, {len(defs) - len(unreached)} reached, "
        f"{len(unreached)} unreached ({len(unreached) - len(unlisted)} listed)"
    )
    for problem in problems:
        print(f"STALE      {problem}")
    if unlisted or problems:
        print(
            f"reach: {len(unlisted)} unreached function(s) not in "
            f"{ALLOWLIST.name}, {len(problems)} bad allowlist line(s)"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
