"""Tests for the durable-file module (:mod:`repro.ledger`).

One torn-tail contract for every ledger, checked through both writers
that use it — the long-lived shard appender and the one-record event
append — plus the reader rule they share, the atomic publish behind
every manifest, result, error file and steal claim, and the durable
removal of a retried job's error file or a released claim.
"""

import json
import os
import sys
import threading

import pytest

from repro.dist.store import StoreError
from repro.faults import FaultInjectedError, activate, plan_from_spec
from repro.ledger import (
    FSYNC_EVERY,
    JsonlAppender,
    StoreCorruptError,
    load_jsonl,
    make_dirs,
    publish,
    remove,
)
from repro.obs.events import EventLog


def _shard_appender(path, records):
    """The long-lived shard writer: a barrier per 64 records and at close."""
    with JsonlAppender(path) as out:
        for record in records:
            out.append(record)


def _event_append(path, records):
    """The one-record event append: open → append → close, per record."""
    for record in records:
        EventLog(path).append(record)


WRITERS = {"shard_appender": _shard_appender, "event_append": _event_append}


@pytest.fixture(params=sorted(WRITERS))
def write(request):
    return WRITERS[request.param]


@pytest.fixture
def fsyncs(monkeypatch):
    """Every ``os.fsync`` call made while the test runs."""
    calls = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


class TestTornTail:
    def test_tail_that_parses_is_terminated(self, tmp_path, write):
        """A tail that parses lost only its newline: the record stays."""
        path = tmp_path / "ledger.jsonl"
        path.write_bytes(b'{"i":0}\n{"i":1}')
        write(path, [{"i": 2}])
        assert load_jsonl(path) == [{"i": 0}, {"i": 1}, {"i": 2}]
        assert path.read_bytes().startswith(b'{"i":0}\n{"i":1}\n')

    @pytest.mark.parametrize(
        "tail", [b'{"i":1,"x', b'{"s":"\xc3', b"   "], ids=["cut", "utf8", "blank"]
    )
    def test_garbage_tail_is_truncated(self, tmp_path, write, tail):
        path = tmp_path / "ledger.jsonl"
        path.write_bytes(b'{"i":0}\n' + tail)
        write(path, [{"i": 2}])
        assert load_jsonl(path) == [{"i": 0}, {"i": 2}]
        assert path.read_bytes().endswith(b"\n")

    def test_torn_write_is_repaired_by_the_next_writer(self, tmp_path, write):
        """The injected killed-writer tear, healed on the next open."""
        path = tmp_path / "ledger.jsonl"
        write(path, [{"i": 0}])
        plan = plan_from_spec({"torn_write": True}).scoped(tmp_path)
        with activate(plan):
            with pytest.raises(FaultInjectedError):
                write(path, [{"i": 1, "pad": "x" * 32}])
        assert not path.read_bytes().endswith(b"\n")  # torn mid-line
        write(path, [{"i": 1}])
        assert load_jsonl(path) == [{"i": 0}, {"i": 1}]

    def test_fsync_fault_leaves_the_record_whole(self, tmp_path, write, fsyncs):
        """The record is written before the barrier fails; the next syncs."""
        path = tmp_path / "ledger.jsonl"
        write(path, [{"i": 0}])
        plan = plan_from_spec({"fsync_error": True}).scoped(tmp_path)
        with activate(plan):
            with pytest.raises(OSError, match="injected fsync"):
                write(path, [{"i": 1}])
            assert load_jsonl(path) == [{"i": 0}, {"i": 1}]
            synced = len(fsyncs)
            write(path, [{"i": 2}])  # one-shot spent: this barrier syncs
            assert len(fsyncs) == synced + 1
        assert load_jsonl(path) == [{"i": 0}, {"i": 1}, {"i": 2}]


class TestReader:
    @pytest.mark.parametrize(
        "data",
        [b'{"a":1}\n{"b":', b'{"a":1}\n{"b":\n', b'{"a":1}\n{"b":\n \n'],
        ids=["no-newline", "newline", "blank-after"],
    )
    def test_torn_final_line_is_tolerated(self, tmp_path, data):
        path = tmp_path / "events.jsonl"
        path.write_bytes(data)
        assert load_jsonl(path) == [{"a": 1}]
        assert EventLog(path).read() == [{"a": 1}]

    def test_interior_corruption_raises_and_names_the_line(self, tmp_path, write):
        path = tmp_path / "ledger.jsonl"
        write(path, [{"i": 0}, {"i": 1}, {"i": 2}])
        lines = path.read_bytes().split(b"\n")
        lines[1] = b"}{ not json"
        path.write_bytes(b"\n".join(lines))
        for read in (load_jsonl, lambda p: EventLog(p).read()):
            with pytest.raises(StoreCorruptError, match="line 2"):
                read(path)
        assert issubclass(StoreCorruptError, StoreError)

    def test_missing_file_reads_empty(self, tmp_path):
        assert load_jsonl(tmp_path / "absent.jsonl") == []
        assert EventLog(tmp_path / "absent.jsonl").read() == []


class TestFsyncCadence:
    """Counts include the one directory fsync of the open that creates
    the ledger."""

    def test_appender_syncs_every_64_records_and_at_close(self, tmp_path, fsyncs):
        with JsonlAppender(tmp_path / "shard.jsonl") as out:
            for i in range(2 * FSYNC_EVERY + 1):
                out.append({"i": i})
            assert len(fsyncs) == 3
        assert len(fsyncs) == 4

    def test_event_append_syncs_once(self, tmp_path, fsyncs):
        log = EventLog(tmp_path / "events.jsonl")
        for n in range(3):
            log.append({"event": "e", "n": n})
        assert len(fsyncs) == 4


class TestPublish:
    THREADS = 8

    def _race(self, fn):
        """Run ``fn(k)`` on 8 threads released together; every call returns."""
        barrier = threading.Barrier(self.THREADS, timeout=30)
        results, errors = [None] * self.THREADS, []

        def run(k):
            barrier.wait()
            try:
                results[k] = fn(k)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(k,)) for k in range(self.THREADS)
        ]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        return results

    @staticmethod
    def _text(k):
        return json.dumps({"writer": k, "pad": "x" * 262144}) + "\n"

    def test_exclusive_publish_has_one_winner(self, tmp_path):
        path = tmp_path / "MANIFEST.json"

        def attempt(k):
            won = publish(path, self._text(k), exclusive=True)
            return won, path.read_text()

        results = self._race(attempt)
        winners = [k for k, (won, _) in enumerate(results) if won]
        assert len(winners) == 1
        assert all(seen == self._text(winners[0]) for _, seen in results)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["MANIFEST.json"]

    def test_replace_publish_from_many_threads(self, tmp_path):
        path = tmp_path / "result.json"
        results = self._race(
            lambda k: publish(path, self._text(k), exclusive=False)
        )
        assert results == [True] * self.THREADS
        assert path.read_text() in {self._text(k) for k in range(self.THREADS)}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["result.json"]

    @pytest.mark.parametrize("exclusive, move", [(True, "link"),
                                                 (False, "replace")])
    def test_publish_is_durable(self, tmp_path, monkeypatch, exclusive, move):
        """The content is fsynced before it takes the name, and the
        directory after: a power loss leaves the old state or the whole
        new file, never an empty or missing one."""
        import stat

        events = []
        real_fsync, real_move = os.fsync, getattr(os, move)

        def fsync(fd):
            info = os.fstat(fd)
            kind = "dir" if stat.S_ISDIR(info.st_mode) else "file"
            events.append(("fsync", kind, info.st_size))
            real_fsync(fd)

        def moved(src, dst):
            events.append((move,))
            real_move(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, move, moved)
        text = '{"done": true}\n'
        assert publish(tmp_path / "result.json", text, exclusive=exclusive)
        assert [e[:2] for e in events] == \
            [("fsync", "file"), (move,), ("fsync", "dir")]
        assert events[0][2] == len(text)
        assert (tmp_path / "result.json").read_text() == text


class TestRemove:
    def test_remove_fsyncs_the_directory_once_the_name_is_gone(
            self, tmp_path, monkeypatch):
        """Like a publish, a removal is durable before the next step: a
        re-queued job's fsynced ``queued`` event cannot meet a
        resurrected ``error.json`` after a power loss."""
        import stat

        path = tmp_path / "error.json"
        path.write_text('{"error": "boom"}\n')
        events = []
        real_fsync = os.fsync

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            events.append((kind, path.exists()))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        assert remove(path) is True
        assert events == [("dir", False)]
        assert not path.exists()

    def test_removing_nothing_costs_no_fsync(self, tmp_path, fsyncs):
        assert remove(tmp_path / "error.json") is False
        assert fsyncs == []


class TestMakeDirs:
    def test_each_new_directory_is_fsynced_into_its_parent(
            self, tmp_path, monkeypatch):
        """Parents first, each fsynced once it holds the new entry."""
        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            synced.append(sorted(os.listdir(fd)))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        make_dirs(tmp_path / "jobs" / "abc" / "store")
        assert (tmp_path / "jobs" / "abc" / "store").is_dir()
        assert synced == [["jobs"], ["abc"], ["store"]]

    def test_existing_directories_cost_no_fsync(self, tmp_path, fsyncs):
        make_dirs(tmp_path)
        (tmp_path / "store").mkdir()
        make_dirs(tmp_path / "store")
        assert fsyncs == []

    def test_a_file_in_the_way_raises(self, tmp_path):
        (tmp_path / "store").write_text("")
        with pytest.raises(FileExistsError):
            make_dirs(tmp_path / "store" / "logs")
