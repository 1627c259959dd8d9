"""Durable files: append-only JSONL ledgers and atomic publishes.

Every file the DSE stack must not lose is written here, and only here:

* **ledgers** — a store's shard and steal files and each served job's
  ``events.jsonl``.  A record is one line, written and
  flushed in one call, so a killed writer leaves at most one torn final
  line.  The one reader, :func:`iter_jsonl`, streams a ledger line by
  line, drops that line, and raises :class:`StoreCorruptError` naming
  the line on corruption before it; :func:`load_jsonl` is its list form.
  Opening for append repairs it first (the next record would glue onto
  it) and keeps exactly what the reader counts as a record, so a resumed
  shard never skips a point the file lost: a tail that parses lost only
  its newline and is terminated, any other tail is truncated.  The open
  that creates a ledger fsyncs its directory before any record is
  written, so the name is as durable as the records;
* **publishes** — :func:`publish` makes ``MANIFEST.json``,
  ``result.json``, ``error.json`` and steal claims appear whole or not
  at all, and durably: the content is fsynced before it takes the name,
  and the directory entry after;
* **removals** — :func:`remove` deletes a released steal claim or a
  retried job's ``error.json`` durably: the directory is fsynced once
  the name is gone, so no later durable step can outlive the removal;
* **directories** — :func:`make_dirs` creates a store's directory and
  its missing parents, fsyncing each new entry into its parent, so a
  published manifest is never reachable only through a lost name.

The write-path hooks of :mod:`repro.faults` (``torn_write``,
``fsync_error``, ``kill``) fire here.  Imports are the standard library
and the stdlib-only fault plan, so every layer, ``obs`` included, can
use this module.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from pathlib import Path

from .faults.errors import FaultInjectedError
from .faults.plan import active_plan

__all__ = [
    "FSYNC_EVERY",
    "StoreError",
    "StoreCorruptError",
    "JsonlAppender",
    "append_once",
    "iter_jsonl",
    "load_jsonl",
    "make_dirs",
    "publish",
    "remove",
]

#: Records between the fsyncs of a long-lived appender: a flush already
#: survives process death, only an OS crash can lose the unsynced tail.
FSYNC_EVERY = 64


class StoreError(RuntimeError):
    """Base class for durable-store failures."""


class StoreCorruptError(StoreError):
    """A durable file violates its format (beyond a torn final line)."""


def _open_for_append(path: Path):
    """Create or repair (see the module docstring), then open."""
    with contextlib.suppress(FileExistsError):
        open(path, "xb").close()
        _fsync_dir(path.parent)
    with open(path, "a+b") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size and os.pread(fh.fileno(), 1, size - 1) != b"\n":
            fh.seek(0)
            data = fh.read()
            keep = data.rfind(b"\n") + 1
            try:
                json.loads(data[keep:])
            except ValueError:  # not a record, or cut inside a character
                fh.truncate(keep)
            else:
                fh.write(b"\n")
            fh.flush()
            os.fsync(fh.fileno())
    return open(path, "a", encoding="utf-8")


def _write(fh, path: Path, line: str):
    plan = active_plan()
    if plan is not None and plan.torn_write_fault(path):
        # Die like a writer killed mid-append: half the line reaches the
        # file.  The next opener's repair is the recovery under test.
        fh.write(line[: len(line) // 2])
        fh.flush()
        raise FaultInjectedError(f"injected torn write in {path.name}")
    fh.write(line)
    fh.flush()
    if plan is not None:
        plan.note_append()


def _fsync(fh, path: Path):
    plan = active_plan()
    if plan is not None:
        plan.fsync_fault(path)
    os.fsync(fh.fileno())


class JsonlAppender:
    """Long-lived ledger writer: one canonical JSON line per record.

    Fsyncs every :data:`FSYNC_EVERY` records and at close; a failed close
    still releases the file.  One writer per file at a time (each shard
    and steal ledger has exactly one owning process).
    """

    def __init__(self, path):
        self._path = Path(path)
        self._fh = _open_for_append(self._path)
        self._unsynced = 0

    def append(self, record: dict):
        line = json.dumps(
            record, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        _write(self._fh, self._path, line + "\n")
        self._unsynced += 1
        if self._unsynced >= FSYNC_EVERY:
            self._sync()

    def _sync(self):
        _fsync(self._fh, self._path)
        self._unsynced = 0

    def close(self):
        if not self._fh.closed:
            try:
                self._sync()
            finally:
                self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


def append_once(path, line: str):
    """One-record open → append → close of an encoded line: one fsync."""
    path = Path(path)
    with _open_for_append(path) as fh:
        _write(fh, path, line)
        _fsync(fh, path)


def iter_jsonl(path):
    """Each record of a ledger, read one line at a time; none if missing.

    A malformed line followed only by whitespace is a killed writer's
    torn tail and is dropped; one before that raises, after the records
    that precede it have been yielded.
    """
    path = Path(path)
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return
    with fh:
        torn = None  # line number of a malformed line, if one was seen
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            if torn is not None:
                raise StoreCorruptError(
                    f"{path}: malformed record at line {torn} "
                    "(not the final line, so not a truncated append)"
                )
            try:
                record = json.loads(line)
            except ValueError:
                torn = number
                continue
            yield record


def load_jsonl(path) -> list:
    """Every record of a ledger, ``[]`` if it is missing (see
    :func:`iter_jsonl`)."""
    return list(iter_jsonl(path))


def publish(path, text: str, *, exclusive: bool) -> bool:
    """Atomically make ``path`` hold ``text``; False if an exclusive one lost.

    ``text`` goes to a temp name unique per process and thread and is
    fsynced, then moves into place with ``os.link`` when ``exclusive``
    (which fails if ``path`` exists, so the loser can read the winner's
    whole file) or ``os.replace`` (last writer wins); a final fsync of
    the directory makes the name itself survive a power loss.  These are
    plain ``os.fsync`` calls, outside the fault plan's ``fsync_error``
    hook, which covers the ledgers only.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        if exclusive:
            os.link(tmp, path)
        else:
            os.replace(tmp, path)
    except FileExistsError:  # only link raises it: the exclusive publish lost
        return False
    finally:
        tmp.unlink(missing_ok=True)
    _fsync_dir(path.parent)
    return True


def remove(path) -> bool:
    """Unlink ``path`` durably; False if it was not there.

    When a file was removed the directory is fsynced, as :func:`publish`
    does, so a power loss cannot bring the name back behind a later
    durable step (a re-queued job's fsynced ``queued`` event must not
    meet a resurrected ``error.json``).  Removing nothing costs no fsync.
    """
    path = Path(path)
    try:
        path.unlink()
    except FileNotFoundError:
        return False
    _fsync_dir(path.parent)
    return True


def make_dirs(directory):
    """Create ``directory`` and its missing parents, durably.

    Each directory this call makes is fsynced into its parent before
    the next one is made, so its name survives a power loss along with
    anything later published inside it.  One another process made
    between the check and the ``mkdir`` is fsynced the same way, as the
    files inside are about to depend on it.  Existing directories cost
    no fsync.
    """
    missing = []
    directory = Path(directory)
    while not directory.is_dir():
        missing.append(directory)
        directory = directory.parent
    for directory in reversed(missing):
        try:
            directory.mkdir()
        except FileExistsError:
            if not directory.is_dir():
                raise
        _fsync_dir(directory.parent)


def _fsync_dir(directory: Path):
    fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
