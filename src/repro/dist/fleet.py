"""Shard fleet supervision: fork N shard processes, keep them alive.

``run_fleet`` (CLI: ``python -m repro dse-fleet``) is the single-host
supervisor for a sharded study.  It forks one child per shard from its
own process, which has already imported ``repro`` and numpy.  The child
points fds 1 and 2 at ``<store>/logs/shard-K.log`` and runs
:func:`repro.cli.main` on the ``dse-shard`` argv that ``python -m repro
dse-shard`` receives on any other host, so argument checks, the fault
plan, the workload build and ``run_shard`` stay one shard path; a shard
or a relaunch pays no interpreter start-up and no imports.  The
supervisor then watches two failure signals:

* **crash** — the child exits nonzero (evaluator bug, injected torn
  write, OOM kill, plain SIGKILL).  The shard is relaunched with capped
  jittered exponential backoff; its store records survive, so the relaunch
  resumes where the corpse stopped.
* **hang** — the child runs, but neither of its ledgers
  (``shard-K-of-N.jsonl``, ``steal-K-of-N.jsonl``) was written in the
  ``hang_after`` seconds since the later of its launch and its last
  record: an evaluator stuck inside a point, which no exit code will
  ever report.  Ledger mtimes track *progress* (one flushed append per
  record), so a slow shard stays live.  The supervisor SIGKILLs the
  child and relaunches it through the same backoff path.

Each shard gets ``max_restarts`` relaunches before it is abandoned; when
the fleet runs with ``--steal``, the surviving shards absorb an abandoned
shard's missing indices, so the study can still complete.  The final
:class:`FleetResult` reports restarts, hang kills, abandoned shards and
whether the store ended complete (every grid index recorded).

A child ends the way the interpreter ends ``python -m repro dse-shard``:
the same exit status, then the exit handlers (``atexit``), then a flush
and ``os._exit``.  It never returns or raises into :func:`run_fleet`,
whose clean-up would SIGKILL its sibling shards.  The supervisor forks
from one Python thread with no ledger open, after flushing
``sys.stdout`` and ``sys.stderr`` so no buffered output is written
twice.

Supervision is deliberately dumb and stateless — the durable store is the
only ledger, exactly like the shards themselves: killing the supervisor
and re-running the same command converges the same way.
"""

from __future__ import annotations

import atexit
import os
import random
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from .. import obs
from .runner import _recorded_indices
from .sharding import ShardSpec
from .store import ResultStore

__all__ = ["FleetResult", "run_fleet"]

_log = obs.get_logger("dist.fleet")

#: Seconds without a ledger write that count as a hang.  Generous by
#: default: a false positive costs one SIGKILL plus a resume, never data.
_HANG_AFTER_S = 30.0

#: Supervisor poll cadence (seconds).
_POLL_S = 0.2

#: Relaunches per shard before the supervisor abandons it.
_MAX_RESTARTS = 3

_BACKOFF_BASE_S = 0.25
_BACKOFF_CAP_S = 5.0


@dataclass(frozen=True)
class FleetResult:
    """Outcome of one :func:`run_fleet` call."""

    store: Path
    num_shards: int
    restarts: int  # total relaunches, crashes and hang kills together
    hang_kills: int  # processes SIGKILLed for stale ledgers
    abandoned: tuple  # 1-based shard indices that exhausted their budget
    complete: bool  # every grid index has a completion record

    @property
    def ok(self) -> bool:
        return self.complete and not self.abandoned


class _Shard:
    """Supervisor-side state of one forked shard."""

    def __init__(self, index, argv, ledgers, log_path):
        self.index = index
        self.argv = argv  # the ``dse-shard`` argv the child runs
        self.ledgers = ledgers
        self.log_path = log_path
        self.pid = None
        self.launched_at = None
        self.restarts = 0
        self.relaunch_at = 0.0  # monotonic deadline; 0 == launch now
        self.done = False
        self.abandoned = False

    @property
    def live(self) -> bool:
        return not (self.done or self.abandoned)

    def launch(self):
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.log_path, "ab") as log:
            # Flushed first, so no buffered output is written twice.
            sys.stdout.flush()
            sys.stderr.flush()
            pid = os.fork()
            if pid == 0:
                _run_child(self.argv, log.fileno())
        self.pid = pid
        self.launched_at = time.monotonic()

    def poll(self):
        """The reaped child's exit code (``-N`` if signal ``N`` killed it),
        or None while it runs."""
        pid, status = os.waitpid(self.pid, os.WNOHANG)
        if not pid:
            return None
        self.pid = None
        return os.waitstatus_to_exitcode(status)

    def kill(self):
        """SIGKILL the child and reap it."""
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self.pid = None

    def idle_s(self) -> float:
        """Seconds since the later of launch and the last ledger write."""
        ages = [time.monotonic() - self.launched_at]
        for path in self.ledgers:
            try:
                ages.append(time.time() - path.stat().st_mtime)
            except OSError:
                pass  # not written yet
        return min(ages)


def _run_child(argv, log_fd):
    """Body of a forked shard: ``dse-shard`` on ``argv``, then exit.

    Never returns: the child leaves through ``os._exit`` after the exit
    handlers (the benchmark's span recorder writes its file in one) and
    a flush of its streams, whatever happens before.
    """
    status = 1
    try:
        os.dup2(log_fd, 1)
        os.dup2(log_fd, 2)
        # Fresh streams on fds 1 and 2, as a new interpreter has: the
        # caller's may write elsewhere (pytest's capture does).
        sys.stdout = open(1, "w", closefd=False)
        sys.stderr = open(
            2, "w", buffering=1, errors="backslashreplace", closefd=False
        )
        status = _exit_status(argv)
        atexit._run_exitfuncs()
        sys.stdout.flush()
        sys.stderr.flush()
    finally:
        os._exit(status)


def _exit_status(argv) -> int:
    """Run ``dse-shard``; the exit status the interpreter would give it."""
    from ..cli import main

    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except BaseException:  # the child's top frame: nothing unwinds past it
        traceback.print_exc()
        return 1
    if code is None or isinstance(code, int):
        return code or 0
    print(code, file=sys.stderr)
    return 1


def run_fleet(
    store,
    num_shards,
    shard_args,
    *,
    hang_after=_HANG_AFTER_S,
    max_restarts=_MAX_RESTARTS,
    poll_s=_POLL_S,
    backoff_base_s=_BACKOFF_BASE_S,
    backoff_cap_s=_BACKOFF_CAP_S,
) -> FleetResult:
    """Supervise ``num_shards`` forked ``dse-shard`` children to completion.

    ``shard_args`` is the common CLI argument tail every shard shares
    (models, grid, evaluator, ``--steal``, ``--faults``, ...); the
    supervisor adds ``--shard K/N`` and ``--out`` per shard, and each
    child runs :func:`repro.cli.main` on that ``dse-shard`` argv.  A
    child's output lands in ``<store>/logs/shard-K.log``.  Call from a
    process with one Python thread: every launch is an ``os.fork``.
    See the module docstring for the crash/hang/abandon semantics.
    """
    store = Path(store)
    num_shards = int(num_shards)
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    rng = random.Random()
    layout = ResultStore(store)
    shards = []
    for k in range(1, num_shards + 1):
        spec = ShardSpec(k, num_shards)
        argv = ["dse-shard", "--shard", str(spec), "--out", str(store)]
        argv += [str(arg) for arg in shard_args]
        ledgers = (layout.shard_path(spec), layout.steal_path(spec))
        shards.append(_Shard(k, argv, ledgers, store / "logs" / f"shard-{k}.log"))

    restarts = hang_kills = 0

    def _crashed(shard, why):
        nonlocal restarts
        shard.restarts += 1
        if shard.restarts > max_restarts:
            shard.abandoned = True
            obs.counter("fleet_abandoned_shards").inc()
            _log.warning(
                "fleet: shard %d/%d abandoned after %d restarts (%s)",
                shard.index, num_shards, max_restarts, why,
            )
            return
        restarts += 1
        backoff = min(
            backoff_cap_s, backoff_base_s * 2 ** (shard.restarts - 1)
        ) * (0.5 + rng.random())
        shard.relaunch_at = time.monotonic() + backoff
        obs.counter("fleet_restarts").inc()
        _log.info(
            "fleet: shard %d/%d %s; relaunch %d/%d in %.2fs",
            shard.index, num_shards, why, shard.restarts, max_restarts, backoff,
        )

    try:
        while any(shard.live for shard in shards):
            for shard in shards:
                if not shard.live:
                    continue
                if shard.pid is None:
                    if time.monotonic() >= shard.relaunch_at:
                        shard.launch()
                    continue
                code = shard.poll()
                if code is not None:
                    if code == 0:
                        shard.done = True
                    else:
                        _crashed(shard, f"exited with code {code}")
                    continue
                if hang_after > 0 and shard.idle_s() > hang_after:
                    hang_kills += 1
                    obs.counter("fleet_hang_kills").inc()
                    shard.kill()
                    _crashed(
                        shard,
                        f"ledgers stale for more than {hang_after:.1f}s",
                    )
            time.sleep(poll_s)
    finally:
        for shard in shards:
            if shard.pid is not None:
                shard.kill()

    complete = _store_complete(store)
    return FleetResult(
        store=store,
        num_shards=num_shards,
        restarts=restarts,
        hang_kills=hang_kills,
        abandoned=tuple(s.index for s in shards if s.abandoned),
        complete=complete,
    )


def _store_complete(root) -> bool:
    """Whether every grid index of the store's study has a record."""
    store = ResultStore(root)
    manifest = store.read_manifest(missing_ok=True)
    if manifest is None:
        return False
    return len(_recorded_indices(store)) >= int(manifest["grid_size"])
