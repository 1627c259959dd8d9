"""Tests for the DSE service (:mod:`repro.serve`).

The load-bearing guarantees: served results are byte-identical to
``python -m repro dse --json`` on the same study (for every evaluator),
identical re-submissions hit the result cache without re-scoring, jobs
survive a server kill and resume from their completion records, and
malformed submissions bounce with a 400 before touching the disk.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import cli
from repro.dist import (
    ResultStore,
    StoreMismatchError,
    build_manifest,
    model_workload_spec,
)
from repro.serve import (
    JobFailedError,
    JobManager,
    ServeClient,
    ServeError,
    ServeRequestError,
    UnknownJobError,
    serving,
    study_fingerprint,
)
from repro.hw.params import VITCOD_DEFAULT
from repro.sim.evaluator import evaluator_from_spec

GRID = {"mac_lines": [16, 32], "ae_compression": [None, 0.5]}
GRID_ARGS = ["--grid", "mac_lines=16,32", "--grid", "ae_compression=none,0.5"]


def _cli_reference(tmp_path, evaluator) -> bytes:
    """The ``dse`` command's JSON for the test study — the golden bytes."""
    out = tmp_path / f"cli-{evaluator}.json"
    cli.main(
        ["dse", "--models", "deit-tiny", "--evaluator", evaluator,
         "--json", str(out)] + GRID_ARGS
    )
    return out.read_bytes()


def _drain(manager):
    while manager.run_next():
        pass


def _request(**overrides):
    request = {"grid": GRID, "evaluator": "analytical", "model": "deit-tiny"}
    request.update(overrides)
    return request


def _hanging(seconds):
    """The analytical evaluator under a one-shot ``evaluator_hang_s``
    fault: the first scoring call in the job's store sleeps ``seconds``.
    The marker is scoped to the store, so of two shards only one hangs,
    and a restarted server's resume does not hang again."""
    return {"name": "analytical", "faults": {"evaluator_hang_s": seconds}}


class TestStudyFingerprint:
    def _manifest(self, n_shards=1, grid=GRID):
        return build_manifest(
            grid, n_shards, evaluator_from_spec("analytical"), VITCOD_DEFAULT,
            model_workload_spec("deit-tiny", sparsity=0.9),
        )

    def test_shard_count_is_an_execution_detail(self):
        assert study_fingerprint(self._manifest(1)) == study_fingerprint(
            self._manifest(3)
        )

    def test_study_content_changes_the_id(self):
        other = {"mac_lines": [16, 64], "ae_compression": [None, 0.5]}
        assert study_fingerprint(self._manifest(grid=other)) != study_fingerprint(
            self._manifest()
        )

    def test_shape(self):
        digest = study_fingerprint(self._manifest())
        assert len(digest) == 16
        assert set(digest) <= set("0123456789abcdef")


class TestJobManager:
    """Deterministic white-box runs: ``workers=0`` + :meth:`run_next`."""

    def test_submit_run_results(self, tmp_path):
        manager = JobManager(tmp_path, workers=0)
        info = manager.submit(_request(n_shards=2))
        assert info["created"] is True
        assert info["cache_hit"] is False
        assert info["state"] == "queued"
        assert info["grid_size"] == 4
        _drain(manager)
        status = manager.status(info["id"])
        assert status["state"] == "done"
        assert status["done"] == status["grid_size"] == 4
        text, partial = manager.results(info["id"])
        assert partial is False
        payload = json.loads(text)
        assert len(payload["points"]) == 4
        assert payload["evaluator"] == "analytical"

    def test_partial_results_stream_from_the_ledger(self, tmp_path):
        manager = JobManager(tmp_path, workers=0)
        info = manager.submit(_request(n_shards=2))
        assert manager.run_next() is True  # exactly one shard ran
        text, partial = manager.results(info["id"])
        assert partial is True
        payload = json.loads(text)
        assert payload["partial"] is True
        assert payload["state"] == "running"
        assert 0 < payload["done"] < payload["grid_size"]
        assert len(payload["points"]) == payload["done"]
        indices = [point["index"] for point in payload["points"]]
        assert indices == sorted(indices)
        status = manager.status(info["id"])
        assert status["state"] == "running"
        assert status["done"] == payload["done"]
        _drain(manager)
        _, partial = manager.results(info["id"])
        assert partial is False

    def test_cache_hit_skips_all_scoring(self, tmp_path):
        manager = JobManager(tmp_path, workers=0)
        first = manager.submit(_request(n_shards=2))
        _drain(manager)
        store = ResultStore(tmp_path / "jobs" / first["id"] / "store")
        stamps = {
            path: path.stat().st_mtime_ns
            for _, _, path in store.shard_files()
        }
        assert manager.stats["shards_run"] == 2
        again = manager.submit(_request(n_shards=2))
        assert again["cache_hit"] is True
        assert again["created"] is False
        assert again["id"] == first["id"]
        assert manager.run_next() is False  # nothing was queued
        assert manager.stats["shards_run"] == 2
        for path, stamp in stamps.items():
            assert path.stat().st_mtime_ns == stamp

    def test_different_shard_count_still_hits_the_cache(self, tmp_path):
        manager = JobManager(tmp_path, workers=0)
        first = manager.submit(_request(n_shards=1))
        _drain(manager)
        again = manager.submit(_request(n_shards=4))
        assert again["id"] == first["id"]
        assert again["cache_hit"] is True

    def test_identical_submission_deduplicates_while_queued(self, tmp_path):
        manager = JobManager(tmp_path, workers=0)
        first = manager.submit(_request(n_shards=2))
        second = manager.submit(_request(n_shards=2))
        assert second["id"] == first["id"]
        assert second["created"] is False
        assert second["cache_hit"] is False
        assert manager.stats["deduplicated"] == 1
        _drain(manager)
        assert manager.stats["shards_run"] == 2  # one job's worth, not two

    def test_sharded_results_match_serial(self, tmp_path):
        serial = JobManager(tmp_path / "a", workers=0)
        sharded = JobManager(tmp_path / "b", workers=0)
        one = serial.submit(_request(n_shards=1))
        three = sharded.submit(_request(n_shards=3))
        assert one["id"] == three["id"]
        _drain(serial)
        _drain(sharded)
        assert serial.results(one["id"])[0] == sharded.results(three["id"])[0]

    def test_failed_job_reports_and_retries(self, tmp_path, monkeypatch):
        manager = JobManager(tmp_path, workers=0)
        info = manager.submit(_request(n_shards=1))

        def boom(*args, **kwargs):
            raise RuntimeError("shard exploded")

        import repro.serve.jobs as jobs_module

        monkeypatch.setattr(jobs_module, "run_shard", boom)
        _drain(manager)
        status = manager.status(info["id"])
        assert status["state"] == "failed"
        assert "shard exploded" in status["error"]
        assert (tmp_path / "jobs" / info["id"] / "error.json").is_file()
        with pytest.raises(JobFailedError, match="shard exploded"):
            manager.results(info["id"])
        monkeypatch.undo()
        retry = manager.submit(_request(n_shards=1))
        assert retry["id"] == info["id"]
        assert retry["state"] == "queued"
        assert retry["cache_hit"] is False
        assert not (tmp_path / "jobs" / info["id"] / "error.json").exists()
        _drain(manager)
        assert manager.status(info["id"])["state"] == "done"

    def test_resume_picks_up_unfinished_jobs(self, tmp_path):
        manager = JobManager(tmp_path, workers=0)
        info = manager.submit(_request(n_shards=2))
        assert manager.run_next() is True  # half the job, then "crash"
        reborn = JobManager(tmp_path, workers=0)
        resumed = reborn.resume()
        assert resumed == [info["id"]]
        _drain(reborn)
        assert reborn.status(info["id"])["state"] == "done"
        # Resumption skipped the recorded shard: only the missing one ran.
        assert reborn.stats["shards_run"] == 2
        store = ResultStore(tmp_path / "jobs" / info["id"] / "store")
        total = sum(count for _, count, _ in store.shard_files())
        assert total == 4  # no index evaluated twice

    def test_resume_registers_finished_and_failed_jobs(self, tmp_path):
        manager = JobManager(tmp_path, workers=0)
        done = manager.submit(_request(n_shards=1))
        _drain(manager)
        reborn = JobManager(tmp_path, workers=0)
        assert reborn.resume() == []
        assert reborn.status(done["id"])["state"] == "done"
        text, partial = reborn.results(done["id"])
        assert partial is False
        assert text == manager.results(done["id"])[0]

    def test_resume_fails_a_job_recorded_with_an_unknown_evaluator(
            self, tmp_path):
        """A job directory of the retired two-phase ``hybrid`` strategy
        (its store holds coarse analytical records) is registered as
        failed, naming the built-ins, instead of being re-run or served."""
        manager = JobManager(tmp_path, workers=0)
        info = manager.submit(_request(n_shards=2))
        assert manager.run_next() is True  # a partial store
        path = tmp_path / "jobs" / info["id"] / "store" / "MANIFEST.json"
        data = json.loads(path.read_text())
        data["evaluator"] = {"name": "hybrid",
                             "coarse": {"name": "analytical"},
                             "fine": {"name": "cycle"}}
        path.write_text(json.dumps(data))
        reborn = JobManager(tmp_path, workers=0)
        assert reborn.resume() == []
        status = reborn.status(info["id"])
        assert status["state"] == "failed"
        assert status["error"] == (
            "unknown evaluator 'hybrid': recorded studies must name one of "
            "['analytical', 'cycle'] or custom:*"
        )
        with pytest.raises(JobFailedError):
            reborn.results(info["id"])

    def test_unknown_job(self, tmp_path):
        manager = JobManager(tmp_path, workers=0)
        with pytest.raises(UnknownJobError):
            manager.status("0" * 16)
        with pytest.raises(UnknownJobError):
            manager.results("0" * 16)


class TestJobIsItsStore:
    """The store's ``MANIFEST.json`` is a served job's only record."""

    #: The README's example request and the id it documents.
    README_REQUEST = {
        "grid": {"mac_lines": [16, 32, 64], "ae_compression": [None, 0.5]},
        "evaluator": "cycle",
        "model": "deit-tiny", "sparsity": 0.9,
        "n_shards": 2,
    }
    README_ID = "0c11e700c7dba059"

    def test_a_served_job_directory_holds_only_its_store(self, tmp_path):
        manager = JobManager(tmp_path, workers=0)
        info = manager.submit(_request(n_shards=2))
        _drain(manager)
        root = tmp_path / "jobs" / info["id"]
        assert sorted(os.listdir(root)) == [
            "events.jsonl", "result.json", "store"
        ]

    def test_the_job_id_is_the_manifest_fingerprint(self, tmp_path):
        manager = JobManager(tmp_path, workers=0)
        info = manager.submit(self.README_REQUEST)
        assert info["id"] == self.README_ID
        store = ResultStore(tmp_path / "jobs" / info["id"] / "store")
        manifest = store.read_manifest()
        assert study_fingerprint(manifest) == info["id"]
        assert manifest["num_shards"] == info["n_shards"] == 2
        assert manifest["grid_size"] == info["grid_size"] == 6

    def test_a_fresh_study_makes_sixteen_fsyncs(self, tmp_path, monkeypatch):
        """Job and store directories 2 (``jobs/``, ``jobs/<id>/``),
        manifest 2 (file, directory), events 7 plus 1 for the new
        ``events.jsonl``'s directory entry, ledger 1 for its directory
        entry and 1 at close, ``result.json`` 2: a second published
        record would add two."""
        manager = JobManager(tmp_path, workers=0)
        calls = []
        real = os.fsync

        def fsync(fd):
            calls.append(fd)
            real(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        info = manager.submit({
            "grid": {"mac_lines": [16, 32], "bandwidth_gbps": [19.2, 38.4]},
            "evaluator": "cycle", "model": "deit-tiny", "n_shards": 1,
        })
        _drain(manager)
        monkeypatch.undo()
        assert manager.status(info["id"])["state"] == "done"
        assert len(calls) == 16

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="names fsynced descriptors through /proc")
    def test_a_new_job_directory_is_durable_before_the_reply(
            self, tmp_path, monkeypatch):
        """By the time ``submit`` returns, ``jobs/`` holds ``<id>`` and
        ``<id>/`` holds ``store`` durably: both directories were fsynced,
        before the manifest inside was published."""
        manager = JobManager(tmp_path, workers=0)
        synced = []
        real = os.fsync

        def fsync(fd):
            synced.append(os.readlink(f"/proc/self/fd/{fd}"))
            real(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        info = manager.submit(_request())
        monkeypatch.undo()
        jobs = tmp_path.resolve() / "jobs"
        root, store = jobs / info["id"], jobs / info["id"] / "store"
        assert synced[:2] == [str(jobs), str(root)]
        assert synced.index(str(store)) > 1  # the manifest's publish

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="names fsynced descriptors through /proc")
    def test_a_new_ledger_is_durable_before_its_first_record(
            self, tmp_path, monkeypatch):
        """A ledger's directory is fsynced once the ledger exists and
        before anything fsyncs a record into it: ``jobs/<id>/`` for
        ``events.jsonl`` before ``submit`` returns, ``store/`` for the
        shard ledger before that appender's first fsync."""
        manager = JobManager(tmp_path, workers=0)
        synced = []  # (fsynced path, the names in it if a directory)
        real = os.fsync

        def fsync(fd):
            path = os.readlink(f"/proc/self/fd/{fd}")
            synced.append(
                (path, os.listdir(path) if os.path.isdir(path) else None)
            )
            real(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        info = manager.submit(_request())
        replied = len(synced)
        _drain(manager)
        monkeypatch.undo()
        assert manager.status(info["id"])["state"] == "done"
        root = tmp_path.resolve() / "jobs" / info["id"]
        assert any(path == str(root) and "events.jsonl" in names
                   for path, names in synced[:replied])
        store = root / "store"
        ledger = store / "shard-0001-of-0001.jsonl"
        first = [path for path, _ in synced].index(str(ledger))
        assert any(path == str(store) and ledger.name in names
                   for path, names in synced[:first])
    def test_the_listing_order_survives_a_restart(self, tmp_path):
        """``GET /jobs`` lists jobs by their ``submitted`` event, which
        is on disk, so a restarted server lists them the same way."""
        manager = JobManager(tmp_path, workers=0)
        order = [
            manager.submit(_request(grid={"mac_lines": [lines]}))["id"]
            for lines in (16, 32, 64, 128)
        ]
        assert order != sorted(order)  # not the directory order
        assert manager.run_next() is True  # one job done, three queued
        assert [info["id"] for info in manager.jobs()] == order
        reborn = JobManager(tmp_path, workers=0)
        assert sorted(reborn.resume()) == sorted(order[1:])
        assert [info["id"] for info in reborn.jobs()] == order

    def test_a_parent_data_dir_keeps_working(self, tmp_path):
        """A ``job.json`` an earlier version wrote beside the store is
        ignored and kept; a directory with one but no manifest (a crash
        inside a submission, before any reply) is not a job."""
        manager = JobManager(tmp_path, workers=0)
        done = manager.submit(_request())["id"]
        _drain(manager)
        queued = manager.submit(_request(grid={"mac_lines": [16, 64]}))["id"]
        for job_id in (done, queued):
            (tmp_path / "jobs" / job_id / "job.json").write_text("{}\n")
        orphan = tmp_path / "jobs" / ("f" * 16)
        orphan.mkdir()
        (orphan / "job.json").write_text("{}\n")
        reborn = JobManager(tmp_path, workers=0)
        assert reborn.resume() == [queued]
        _drain(reborn)
        for job_id in (done, queued):
            assert reborn.status(job_id)["state"] == "done"
            assert (tmp_path / "jobs" / job_id / "job.json").is_file()
        with pytest.raises(UnknownJobError):
            reborn.status("f" * 16)
        assert [info["id"] for info in reborn.jobs()] == [done, queued]


class TestValidation:
    @pytest.fixture()
    def manager(self, tmp_path):
        return JobManager(tmp_path, workers=0)

    @pytest.mark.parametrize(
        "request_patch, match",
        [
            ({"grid": None}, "grid"),
            ({"grid": {}}, "grid"),
            ({"grid": {"warp_drives": [1]}}, "unknown grid parameter"),
            ({"grid": {"mac_lines": []}}, "non-empty list"),
            ({"grid": {"mac_lines": 16}}, "non-empty list"),
            ({"grid": {"mac_lines": [16, "wat"]}}, "must be a number"),
            ({"grid": {"mac_lines": [True]}}, "must be a number"),
            ({"evaluator": "quantum"}, "evaluator"),
            ({"evaluator": {"name": "cycle", "engine": "abacus"}}, "engine"),
            (
                {"evaluator": {"name": "cycle", "adaptive": True}},
                "adaptive",
            ),
            ({"n_shards": 0}, "n_shards"),
            ({"n_shards": 99}, "n_shards"),
            ({"n_shards": 2.5}, "n_shards"),
            ({"handicap": -1}, "handicap"),
            ({"model": 7}, "model"),
            ({"flux_capacitor": True}, "unknown request field"),
            (
                {"workload_spec": {"kind": "model", "model": "deit-tiny"},
                 "model": "deit-tiny"},
                "not both",
            ),
            ({"workload_spec": {"kind": "opaque"}}, "kind='model'"),
            (
                {"workload_spec": {"kind": "model", "model": "deit-tiny",
                                   "blur": 1}},
                "unknown workload_spec field",
            ),
        ],
    )
    def test_rejects_before_touching_disk(self, manager, tmp_path,
                                          request_patch, match):
        request = _request()
        if "workload_spec" in request_patch and "model" not in request_patch:
            request.pop("model")  # the shorthand would conflict first
        request.update(request_patch)
        with pytest.raises(ServeRequestError, match=match):
            manager.submit(request)
        assert list((tmp_path / "jobs").iterdir()) == []
        assert manager.run_next() is False

    def test_rejects_oversized_grids(self, manager, tmp_path):
        """One point over the 65,536-point limit is refused before any
        work: no grid check, no workload, no directory."""
        grid = {"mac_lines": list(range(2, 65539))}
        with pytest.raises(ServeRequestError,
                           match="65537 points, above this server's limit "
                                 "of 65536"):
            manager.submit(_request(grid=grid))
        assert list((tmp_path / "jobs").iterdir()) == []

    def test_rejects_unknown_models(self, manager):
        with pytest.raises(ServeRequestError, match="workload"):
            manager.submit(_request(model="resnet-9000"))

    def test_rejects_non_dict_bodies(self, manager):
        with pytest.raises(ServeRequestError, match="JSON object"):
            manager.submit(["not", "a", "study"])

    def test_spec_spellings_share_one_job(self, manager):
        """Implicit and explicit workload defaults fingerprint identically."""
        shorthand = manager.submit(_request())
        explicit = manager.submit(
            {
                "grid": GRID,
                "evaluator": {"name": "analytical"},
                "workload_spec": {
                    "kind": "model", "model": "deit-tiny", "sparsity": 0.9,
                    "theta_d": 0.25, "seed": 0, "index_format": "csc",
                    "reordered": True,
                },
            }
        )
        assert explicit["id"] == shorthand["id"]
        assert manager.stats["deduplicated"] == 1


class TestHTTPService:
    """End-to-end over a real socket: the byte-identity contract."""

    @pytest.mark.parametrize("evaluator", ["analytical", "cycle"])
    def test_served_results_byte_identical_to_cli(self, tmp_path, evaluator):
        expected = _cli_reference(tmp_path, evaluator)
        with serving(tmp_path / "data", workers=2) as server:
            client = ServeClient(server.url)
            info = client.submit(_request(evaluator=evaluator, n_shards=2))
            status = client.wait(info["id"], timeout=300)
            assert status["state"] == "done"
            assert client.raw_results(info["id"]) == expected
            again = client.submit(_request(evaluator=evaluator, n_shards=2))
            assert again["cache_hit"] is True
            assert client.raw_results(again["id"]) == expected

    def test_http_validation_and_routing(self, tmp_path):
        with serving(tmp_path / "data", workers=0) as server:
            client = ServeClient(server.url)
            assert client.health()["ok"] is True
            assert client.jobs() == []
            with pytest.raises(ServeError) as excinfo:
                client.submit(_request(grid={"warp_drives": [1]}))
            assert excinfo.value.status == 400
            with pytest.raises(ServeError) as excinfo:
                client.status("0" * 16)
            assert excinfo.value.status == 404
            with pytest.raises(ServeError) as excinfo:
                client.status("not-a-job-id")
            assert excinfo.value.status == 404
            with pytest.raises(ServeError) as excinfo:
                client._request("/jobs", data=b"{not json")
            assert excinfo.value.status == 400

    def test_handicap_is_not_a_request_field(self, tmp_path):
        """A per-point sleep is no client's to ask for: the field is
        unknown, and nothing is written."""
        with serving(tmp_path / "data", workers=0) as server:
            with pytest.raises(ServeError) as excinfo:
                ServeClient(server.url).submit(_request(handicap=0.5))
        assert excinfo.value.status == 400
        assert "unknown request field(s) ['handicap']" in str(excinfo.value)
        jobs = tmp_path / "data" / "jobs"
        assert not jobs.exists() or not any(jobs.iterdir())

    def test_unknown_evaluator_answers_400(self, tmp_path):
        """``"hybrid"`` is no longer an evaluator: the spec check refuses
        it, naming the built-ins, before any job directory exists."""
        with serving(tmp_path / "data", workers=0) as server:
            with pytest.raises(ServeError) as excinfo:
                ServeClient(server.url).submit(_request(evaluator="hybrid"))
        assert excinfo.value.status == 400
        assert "choose from ['analytical', 'cycle']" in str(excinfo.value)
        jobs = tmp_path / "data" / "jobs"
        assert not jobs.exists() or not any(jobs.iterdir())

    def test_corrupt_event_timeline_answers_500(self, tmp_path):
        with serving(tmp_path / "data", workers=0) as server:
            client = ServeClient(server.url, retries=0)
            job_id = client.submit(_request())["id"]
            assert len(client.events(job_id)) >= 2
            path = tmp_path / "data" / "jobs" / job_id / "events.jsonl"
            lines = path.read_bytes().split(b"\n")
            lines[0] = b"}{ not json"
            path.write_bytes(b"\n".join(lines))
            with pytest.raises(ServeError) as excinfo:
                client.events(job_id)
            assert excinfo.value.status == 500
            assert "line 1" in str(excinfo.value)

    def test_submission_returns_201_only_on_creation(self, tmp_path):
        import urllib.request

        with serving(tmp_path / "data", workers=2) as server:
            body = json.dumps(_request()).encode()

            def post():
                request = urllib.request.Request(
                    f"{server.url}/jobs", data=body,
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=30) as response:
                    return response.status, json.loads(response.read())

            first_code, first = post()
            assert first_code == 201
            ServeClient(server.url).wait(first["id"], timeout=120)
            second_code, second = post()
            assert second_code == 200
            assert second["cache_hit"] is True


class _ServerProcess:
    """A real ``python -m repro serve`` child on an ephemeral port."""

    def __init__(self, tmp_path, data_dir):
        import repro

        env = dict(os.environ)
        package_root = str(Path(repro.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [package_root] + ([env["PYTHONPATH"]] if "PYTHONPATH" in env
                              else [])
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--data-dir", str(data_dir)],
            cwd=str(tmp_path), env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        banner = self.proc.stdout.readline()
        assert "listening on http://" in banner, banner
        self.url = banner.split("listening on ")[1].split()[0]

    def kill(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


class TestRestartResume:
    """Acceptance: a killed server's jobs finish after a restart."""

    def test_job_survives_a_server_kill(self, tmp_path):
        expected = _cli_reference(tmp_path, "analytical")
        data_dir = tmp_path / "data"
        first = _ServerProcess(tmp_path, data_dir)
        job_id = None
        try:
            client = ServeClient(first.url)
            # One shard hangs in its first scoring call while the other
            # records its points, so the kill lands mid-grid
            # deterministically, not by racing a fast sweep.
            request = _request(n_shards=2, evaluator=_hanging(60.0))
            info = client.submit(request)
            job_id = info["id"]
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                status = client.status(job_id)
                if status["done"] >= 1:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("server never recorded a completed point")
            assert status["done"] < status["grid_size"], (
                "job finished before the kill; lengthen the hang"
            )
        finally:
            first.kill()

        second = _ServerProcess(tmp_path, data_dir)
        try:
            client = ServeClient(second.url)
            status = client.wait(job_id, timeout=120)
            assert status["state"] == "done"
            assert client.raw_results(job_id) == expected
            # And the finished study now serves straight from the cache.
            again = client.submit(request)
            assert again["id"] == job_id
            assert again["cache_hit"] is True
        finally:
            second.kill()


class TestCreateOrAttach:
    """The shared create-or-attach helper is race-safe (O_EXCL publish)."""

    def _manifest(self, grid=GRID):
        return build_manifest(
            grid, 2, evaluator_from_spec("analytical"), VITCOD_DEFAULT,
            model_workload_spec("deit-tiny", sparsity=0.9),
        )

    def test_concurrent_identical_creations_all_succeed(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        manifest = self._manifest()
        root = tmp_path / "store"
        with ThreadPoolExecutor(max_workers=8) as pool:
            opened = list(
                pool.map(
                    lambda _: ResultStore.create_or_attach(root, manifest),
                    range(8),
                )
            )
        stores = [store for store, _ in opened]
        assert all(store.read_manifest() == stores[0].read_manifest()
                   for store in stores)
        # The exclusive publish has exactly one winner: one new job.
        assert sum(created for _, created in opened) == 1
        assert not list(root.glob("*.tmp.*"))  # losers cleaned up

    def test_concurrent_mismatched_creation_one_winner(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        manifest_a = self._manifest()
        manifest_b = self._manifest(
            grid={"mac_lines": [16, 64], "ae_compression": [None, 0.5]}
        )
        root = tmp_path / "store"

        def attempt(manifest):
            try:
                ResultStore.create_or_attach(root, manifest)
                return "ok"
            except StoreMismatchError:
                return "mismatch"

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(
                pool.map(attempt, [manifest_a, manifest_b] * 4)
            )
        published = ResultStore(root).read_manifest()
        assert published in (manifest_a, manifest_b)
        winner = manifest_a if published == manifest_a else manifest_b
        expected = ["ok" if m == winner else "mismatch"
                    for m in [manifest_a, manifest_b] * 4]
        assert outcomes == expected
        assert not list(root.glob("*.tmp.*"))

    def test_attach_validates_against_existing(self, tmp_path):
        root = tmp_path / "store"
        ResultStore.create_or_attach(root, self._manifest())
        with pytest.raises(StoreMismatchError):
            ResultStore.create_or_attach(
                root,
                self._manifest(
                    grid={"mac_lines": [16], "ae_compression": [None]}
                ),
            )


class TestBackpressure:
    """Bounded queue: overflow is a 503 + Retry-After, never silent loss."""

    def test_overload_raises_before_touching_disk(self, tmp_path):
        from repro.serve import ServeOverloadError

        manager = JobManager(tmp_path, workers=0, max_pending=1)
        with pytest.raises(ServeOverloadError) as err:
            manager.submit(_request(n_shards=2))
        assert err.value.retry_after >= 1.0
        assert manager.stats["overload_rejections"] == 1
        assert not any(manager.jobs_root.iterdir()), (
            "a rejected submission must not leave a job directory"
        )

    def test_resume_is_exempt_from_the_bound(self, tmp_path):
        roomy = JobManager(tmp_path, workers=0, max_pending=16)
        info = roomy.submit(_request(n_shards=4))
        # A restarted server re-queues accepted work even when the bound
        # would reject the same study as a fresh submission.
        tight = JobManager(tmp_path, workers=0, max_pending=1)
        assert info["id"] in tight.resume()
        assert tight.status(info["id"])["state"] == "queued"
        _drain(tight)
        assert tight.status(info["id"])["state"] == "done"

    def test_http_overload_is_503_with_retry_after(self, tmp_path):
        import urllib.error
        import urllib.request

        with serving(tmp_path / "data", workers=0, max_pending=1) as server:
            body = json.dumps(_request(n_shards=2)).encode()
            request = urllib.request.Request(
                f"{server.url}/jobs", data=body,
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            assert err.value.code == 503
            assert float(err.value.headers["Retry-After"]) >= 1
            payload = json.loads(err.value.read())
            assert "retry_after" in payload

    def test_client_surfaces_503_without_retries(self, tmp_path):
        with serving(tmp_path / "data", workers=0, max_pending=1) as server:
            client = ServeClient(server.url, retries=0)
            with pytest.raises(ServeError) as err:
                client.submit(_request(n_shards=2))
            assert err.value.status == 503


class TestTaskRetries:
    """Shard-task failures spend a budget before poisoning the job."""

    def test_injected_fsync_failure_heals_within_budget(self, tmp_path):
        expected = _cli_reference(tmp_path, "analytical")
        manager = JobManager(tmp_path / "data", workers=0, task_retries=2)
        info = manager.submit(_request(
            evaluator={"name": "analytical", "faults": {"fsync_error": True}}
        ))
        _drain(manager)
        assert manager.status(info["id"])["state"] == "done"
        assert manager.stats["task_retries"] == 1
        text, partial = manager.results(info["id"])
        assert not partial and text.encode() == expected
        events = [e["event"] for e in manager.events(info["id"])]
        assert "shard_retry" in events

    def test_transient_evaluator_faults_cost_no_task_retries(self, tmp_path):
        """In-shard point retries absorb seeded evaluator errors."""
        expected = _cli_reference(tmp_path, "analytical")
        manager = JobManager(tmp_path / "data", workers=0)
        info = manager.submit(_request(
            evaluator={
                "name": "analytical",
                "faults": {"seed": 3, "evaluator_error_rate": 0.5},
            }
        ))
        _drain(manager)
        assert manager.status(info["id"])["state"] == "done"
        assert manager.stats["task_retries"] == 0
        text, _ = manager.results(info["id"])
        assert text.encode() == expected

    def test_exhausted_budget_fails_the_job(self, tmp_path, monkeypatch):
        import repro.serve.jobs as jobs_mod

        def explode(*args, **kwargs):
            raise RuntimeError("persistent shard crash")

        monkeypatch.setattr(jobs_mod, "run_shard", explode)
        manager = JobManager(tmp_path, workers=0, task_retries=1)
        info = manager.submit(_request())
        _drain(manager)
        status = manager.status(info["id"])
        assert status["state"] == "failed"
        assert "persistent shard crash" in status["error"]
        assert manager.stats["task_retries"] == 1
        assert manager.stats["jobs_failed"] == 1

    def test_concurrent_shard_failures_fail_the_job_once(
        self, tmp_path, monkeypatch
    ):
        """Two workers failing one job's shards at once: one failure,
        one ``failed`` event, and both workers live on."""
        import threading

        import repro.serve.jobs as jobs_mod

        real_run_shard = jobs_mod.run_shard
        barrier = threading.Barrier(2, timeout=30)
        failing = {"on": True}

        def run_shard(*args, **kwargs):
            barrier.wait()  # both shards in flight before either fails
            if failing["on"]:
                raise RuntimeError("shard crash")
            return real_run_shard(*args, **kwargs)

        monkeypatch.setattr(jobs_mod, "run_shard", run_shard)
        manager = JobManager(tmp_path, workers=2, task_retries=0)
        try:
            info = manager.submit(_request(n_shards=2))
            deadline = time.monotonic() + 60
            while manager.status(info["id"])["state"] != "failed":
                assert time.monotonic() < deadline, "job never failed"
                time.sleep(0.01)
            failing["on"] = False
            # A second 2-shard job passes the barrier only if both
            # workers survived the first job's double failure.
            healthy = manager.submit(_request(
                grid={"mac_lines": [16, 64]}, n_shards=2
            ))
            deadline = time.monotonic() + 60
            while manager.status(healthy["id"])["state"] != "done":
                assert time.monotonic() < deadline, "second job stuck"
                time.sleep(0.01)
            assert all(thread.is_alive() for thread in manager._threads)
        finally:
            manager.stop()
        assert manager.stats["jobs_failed"] == 1
        events = [e["event"] for e in manager.events(info["id"])]
        assert events.count("failed") == 1

    def test_kill_fault_plans_are_rejected(self, tmp_path):
        manager = JobManager(tmp_path, workers=0)
        with pytest.raises(ServeRequestError, match="kill_after_records"):
            manager.submit(_request(
                evaluator={"name": "analytical",
                           "faults": {"kill_after_records": 1}}
            ))


class TestTaskWatchdog:
    def test_hung_task_times_out_and_fails(self, tmp_path):
        manager = JobManager(
            tmp_path, workers=0, task_timeout=0.3, task_retries=0
        )
        # The one shard's first scoring call hangs 1s >> 0.3s.
        info = manager.submit(_request(evaluator=_hanging(1.0)))
        _drain(manager)
        status = manager.status(info["id"])
        assert status["state"] == "failed"
        assert "task timeout" in status["error"]
        assert manager.stats["task_timeouts"] >= 1

    def test_fast_tasks_never_meet_the_watchdog(self, tmp_path):
        manager = JobManager(tmp_path, workers=0, task_timeout=60.0)
        info = manager.submit(_request())
        _drain(manager)
        assert manager.status(info["id"])["state"] == "done"
        assert manager.stats["task_timeouts"] == 0


class TestGracefulShutdown:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        server = _ServerProcess(tmp_path, tmp_path / "data")
        server.proc.send_signal(signal.SIGTERM)
        assert server.proc.wait(timeout=30) == 0
        out = server.proc.stdout.read()
        server.proc.stdout.close()
        assert "draining" in out

    def test_sigterm_mid_job_resumes_cleanly(self, tmp_path):
        expected = _cli_reference(tmp_path, "analytical")
        data_dir = tmp_path / "data"
        first = _ServerProcess(tmp_path, data_dir)
        try:
            client = ServeClient(first.url)
            info = client.submit(_request(n_shards=2, evaluator=_hanging(2.0)))
            job_id = info["id"]
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if client.status(job_id)["done"] >= 1:
                    break
                time.sleep(0.02)
        finally:
            first.proc.send_signal(signal.SIGTERM)
        assert first.proc.wait(timeout=60) == 0
        first.proc.stdout.close()

        second = _ServerProcess(tmp_path, data_dir)
        try:
            client = ServeClient(second.url)
            status = client.wait(job_id, timeout=120)
            assert status["state"] == "done"
            assert client.raw_results(job_id) == expected
        finally:
            second.kill()


class TestClientRetries:
    def test_5xx_retries_honour_retry_after(self):
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        hits = []

        class Flaky(BaseHTTPRequestHandler):
            def do_GET(self):
                hits.append(self.path)
                if len(hits) == 1:
                    body = b'{"error": "warming up"}'
                    self.send_response(503)
                    self.send_header("Retry-After", "0")
                else:
                    body = b'{"ok": true, "stats": {}}'
                    self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):
                pass

        httpd = HTTPServer(("127.0.0.1", 0), Flaky)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServeClient(
                f"http://127.0.0.1:{httpd.server_address[1]}",
                retries=2, backoff_s=0.01,
            )
            assert client.health()["ok"] is True
            assert len(hits) == 2
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=10)

    def test_4xx_never_retries(self, tmp_path):
        with serving(tmp_path / "data", workers=0) as server:
            client = ServeClient(server.url, retries=3, backoff_s=0.01)
            begin = time.monotonic()
            with pytest.raises(ServeError) as err:
                client.submit({"grid": {"bogus": [1]}})
            assert err.value.status == 400
            assert time.monotonic() - begin < 1.0  # no backoff sleeps

    def test_connection_errors_retry_then_raise(self):
        import urllib.error

        client = ServeClient("http://127.0.0.1:9", retries=2, backoff_s=0.01)
        with pytest.raises(urllib.error.URLError):
            client.health()
