"""A server keeps live jobs in memory and finished jobs on disk.

``JobManager._jobs`` holds queued, running and merging jobs only.  Once a
job's ``result.json`` or ``error.json`` and its transition event are
durable it leaves the table, and ``status``, ``results``, ``events`` and
``jobs`` read its directory.  The contracts under test: a dropped job
answers exactly as it did before the drop; a done job's status reads no
ledger; cache hits register nothing and open no file beyond the result
and the event log; a start-up opens no finished job's files; only a
well-formed id is ever joined to a path; and a server's memory no longer
grows with the studies it has served.
"""

import contextlib
import gc
import json
import os
import sys
import threading
import tracemalloc

import pytest

import repro.dist.merge as merge_module
import repro.serve.jobs as jobs_module
from repro.dist import ResultStore
from repro.serve import JobFailedError, JobManager, UnknownJobError
from repro.serve.app import ServeServer, run_server
from repro.sim.evaluator import AnalyticalEvaluator

GRID = {"mac_lines": [16, 32], "ae_compression": [None, 0.5]}


def _request(**overrides):
    request = {"grid": GRID, "evaluator": "analytical", "model": "deit-tiny"}
    request.update(overrides)
    return request


def _drain(manager):
    while manager.run_next():
        pass


_OPENED = []  # paths opened while a recording is on
_RECORDING = threading.Event()
_HOOKED = []


def _audit(event, args):
    if event == "open" and _RECORDING.is_set() and isinstance(
            args[0], (str, bytes, os.PathLike)):
        _OPENED.append(os.path.abspath(os.fsdecode(args[0])))


@contextlib.contextmanager
def _opened():
    """Yield the list of paths any thread opens in the body.

    An audit hook cannot be removed, so one is added per process and
    records only while a body runs.
    """
    if not _HOOKED:
        sys.addaudithook(_audit)
        _HOOKED.append(True)
    _OPENED.clear()
    _RECORDING.set()
    try:
        yield _OPENED
    finally:
        _RECORDING.clear()


def _fail_first_row(monkeypatch):
    """Make the analytical evaluator fail each call's first row for good."""
    real = AnalyticalEvaluator.evaluate_batch

    def evaluate_batch(self, workload, base_config, names, rows):
        results = real(self, workload, base_config, names, rows)
        return [RuntimeError("no such design")] + results[1:]

    monkeypatch.setattr(AnalyticalEvaluator, "evaluate_batch", evaluate_batch)


def _crash_shards(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("shard exploded")

    monkeypatch.setattr(jobs_module, "run_shard", boom)


def _views(manager, job_id):
    """Everything a client can ask about one job."""
    try:
        results = manager.results(job_id)
    except JobFailedError as exc:
        results = ("409", str(exc))
    return {
        "status": manager.status(job_id),
        "results": results,
        "events": manager.events(job_id),
        "jobs": [info for info in manager.jobs() if info["id"] == job_id],
    }


@pytest.fixture()
def finished(tmp_path, monkeypatch):
    """A done job with a failed point and a failed job, each with what
    the manager answered about it just before dropping it."""
    manager = JobManager(tmp_path / "data", workers=0, task_retries=0)
    before = {}
    real_drop = JobManager._drop

    def drop(self, job):
        assert self._jobs[job.job_id] is job
        before[job.job_id] = _views(self, job.job_id)
        real_drop(self, job)

    monkeypatch.setattr(JobManager, "_drop", drop)
    with monkeypatch.context() as patch:
        _fail_first_row(patch)
        done = manager.submit(_request(n_shards=2))["id"]
        with pytest.warns(RuntimeWarning, match="no such design"):
            _drain(manager)
    with monkeypatch.context() as patch:
        _crash_shards(patch)
        failed = manager.submit(_request(grid={"mac_lines": [16, 64]}))["id"]
        _drain(manager)
    return manager, done, failed, before


class TestFinishedJobsLiveOnDisk:
    def test_answers_do_not_change_when_a_job_is_dropped(self, finished):
        manager, done, failed, before = finished
        assert manager._jobs == {}
        assert before[done]["status"]["state"] == "done"
        assert before[done]["status"]["failed_points"] == 2  # one per shard
        assert before[failed]["status"]["state"] == "failed"
        assert before[failed]["results"][0] == "409"
        for job_id in (done, failed):
            assert _views(manager, job_id) == before[job_id]

    def test_a_restart_registers_nothing_and_answers_the_same(self, finished):
        manager, done, failed, before = finished
        reborn = JobManager(manager.data_dir, workers=0)
        assert reborn.resume() == []
        assert reborn._jobs == {}
        for job_id in (done, failed):
            assert _views(reborn, job_id) == before[job_id]
        assert [info["id"] for info in reborn.jobs()] == [done, failed]

    def test_done_counts_equal_the_store_fold(self, finished):
        """The done event's counts are the store's: with the event lost
        (a crash after ``result.json``), status folds the ledgers and
        answers the same."""
        manager, done, _, before = finished
        events = manager.jobs_root / done / "events.jsonl"
        lines = events.read_text().splitlines(keepends=True)
        events.write_text("".join(
            line for line in lines if json.loads(line)["event"] != "done"
        ))
        assert manager.status(done) == before[done]["status"]

    def test_done_status_reads_no_ledger(self, finished, monkeypatch):
        manager, done, _, before = finished

        def no_ledger(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a finished job's status read a ledger")

        monkeypatch.setattr(jobs_module, "store_status", no_ledger)
        monkeypatch.setattr(merge_module, "store_status", no_ledger)
        monkeypatch.setattr(ResultStore, "iter_records", no_ledger)
        monkeypatch.setattr(ResultStore, "load_records", no_ledger)
        assert manager.status(done) == before[done]["status"]

    def test_a_lookup_racing_a_retry_finds_the_new_entry(
            self, tmp_path, monkeypatch):
        """A lookup that missed the table just before an identical
        re-submission re-queued a failed job finds no ``error.json`` on
        disk, and answers from the new live entry."""
        manager = JobManager(tmp_path, workers=0, task_retries=0)
        _crash_shards(monkeypatch)
        info = manager.submit(_request())
        _drain(manager)
        monkeypatch.undo()
        assert manager.submit(_request())["state"] == "queued"
        assert manager._read(info["id"]) is manager._jobs[info["id"]]

    def test_failed_siblings_are_skipped(self, tmp_path, monkeypatch):
        calls = []

        def boom(*args, **kwargs):
            calls.append(args[2])
            raise RuntimeError("shard exploded")

        monkeypatch.setattr(jobs_module, "run_shard", boom)
        manager = JobManager(tmp_path, workers=0, task_retries=0)
        info = manager.submit(_request(n_shards=3))
        assert manager.run_next() is True  # fails and drops the job
        assert manager._jobs == {}
        _drain(manager)  # the two queued siblings
        assert calls == ["1/3"]
        assert manager.status(info["id"])["state"] == "failed"


class TestCacheHits:
    def test_cache_hits_register_nothing(self, tmp_path):
        manager = JobManager(tmp_path, workers=0)
        first = manager.submit(_request())
        _drain(manager)
        text, _ = manager.results(first["id"])
        root = manager.jobs_root / first["id"]
        for _ in range(3):
            with _opened() as opened:
                again = manager.submit(_request(n_shards=2))
                assert manager.results(first["id"]) == (text, False)
            assert again["cache_hit"] is True and again["state"] == "done"
            assert manager._jobs == {}
            assert set(opened) == {str(root / "result.json"),
                                   str(root / "events.jsonl")}

    def test_a_cache_hit_submit_reads_no_result(self, tmp_path):
        """A hit is seen from the result's existence: the POST appends
        its event and never opens ``result.json``."""
        manager = JobManager(tmp_path, workers=0)
        first = manager.submit(_request())
        _drain(manager)
        root = manager.jobs_root / first["id"]
        with _opened() as opened:
            again = manager.submit(_request())
        assert again["cache_hit"] is True and again["state"] == "done"
        assert set(opened) == {str(root / "events.jsonl")}


class TestJobIds:
    @pytest.fixture()
    def escape(self, tmp_path):
        """A done job, and a copy of its directory outside ``jobs_root``."""
        manager = JobManager(tmp_path / "data", workers=0)
        job_id = manager.submit(_request())["id"]
        _drain(manager)
        outside = tmp_path / "outside"
        (outside / "store").mkdir(parents=True)
        for name in ("store/MANIFEST.json", "result.json", "events.jsonl"):
            (outside / name).write_bytes(
                (manager.jobs_root / job_id / name).read_bytes())
        (manager.jobs_root / ("0" * 16)).mkdir()  # no store/MANIFEST.json
        return manager, job_id, outside

    def test_only_well_formed_ids_touch_the_disk(self, escape):
        manager, job_id, outside = escape
        bad = [
            "../../outside",
            str(outside),
            job_id.upper(),
            job_id[:15],
            job_id + "0",
            "0" * 16,
            None,
        ]
        root = str(manager.jobs_root) + os.sep
        for lookup in (manager.status, manager.results, manager.events):
            for job_id_ in bad:
                with _opened() as opened:
                    with pytest.raises(UnknownJobError):
                        lookup(job_id_)
                assert all(path.startswith(root) for path in opened), opened
                if job_id_ != "0" * 16:
                    assert opened == []
        assert manager.status(job_id)["state"] == "done"


def test_start_up_opens_no_finished_job(finished, monkeypatch, capsys):
    """``run_server`` resumes, counts and announces the unfinished job
    without opening a done or failed job's files."""
    manager, done, failed, _ = finished
    unfinished = manager.submit(_request(grid={"mac_lines": [32, 64]}))["id"]
    monkeypatch.setattr(ServeServer, "serve_forever", lambda self: None)
    servers = []
    # Off the main thread, so run_server installs no SIGTERM handler.
    thread = threading.Thread(target=lambda: servers.append(
        run_server(manager.data_dir, port=0, workers=0)))
    with _opened() as opened:
        thread.start()
        thread.join(60)
    assert servers and servers[0].resumed == [unfinished]
    assert "resumed=1)" in capsys.readouterr().out
    for job_id in (done, failed):
        inside = str(manager.jobs_root / job_id) + os.sep
        assert not [path for path in opened if path.startswith(inside)]


def test_memory_stays_flat_over_fresh_studies(tmp_path):
    """After a warm-up, fresh studies leave nothing behind: on average
    no gc-tracked object and at most 512 traced bytes per study (a
    manager that kept every finished job added 9 objects and ~3 KB)."""
    warm_up, studies = 30, 200
    requests = [
        _request(grid={"mac_lines": [16], "bandwidth_gbps": [24.0 + i / 1e3]})
        for i in range(warm_up + studies)
    ]
    manager = JobManager(tmp_path, workers=0)

    def serve(batch):
        for request in batch:
            manager.submit(request)
            _drain(manager)

    serve(requests[:warm_up])
    gc.collect()
    objects = len(gc.get_objects())
    tracemalloc.start()
    try:
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0]
        serve(requests[warm_up:])
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - traced
    finally:
        tracemalloc.stop()
    gc.collect()
    added = len(gc.get_objects()) - objects
    assert added / studies < 1, added
    assert retained / studies <= 512, retained
    assert manager._jobs == {}


def test_lookups_never_miss_a_job_under_thread_churn(tmp_path):
    """Jobs dropped while other threads poll them: with more workers than
    cores and a short switch interval, no lookup of a submitted job ever
    finds it unknown, every job ends done with one result, and the table
    ends empty."""
    manager = JobManager(tmp_path, workers=4)
    requests = [
        _request(grid={"mac_lines": [16, 32], "bandwidth_gbps": [24.0 + i]})
        for i in range(24)
    ]
    errors = []

    def client(mine):
        try:
            for request in mine:
                job_id = manager.submit(request)["id"]
                while manager.status(job_id)["state"] != "done":
                    manager.submit(request)  # dedup or cache hit
                    manager.jobs()
                text, partial = manager.results(job_id)
                assert not partial and manager.events(job_id)
                assert manager.submit(request)["cache_hit"] is True
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [threading.Thread(target=client, args=(requests[k::3],))
                   for k in range(3)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(120)
        assert not any(thread.is_alive() for thread in clients)
    finally:
        sys.setswitchinterval(interval)
        manager.stop()
    assert errors == []
    assert manager._jobs == {}
    assert manager.stats["jobs_completed"] == len(requests)
    assert len(manager.jobs()) == len(requests)
