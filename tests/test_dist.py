"""Tests for the sharded, resumable DSE pipeline (:mod:`repro.dist`)."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.dist import (
    IncompleteStoreError,
    ResultStore,
    ShardSpec,
    StoreCorruptError,
    StoreMismatchError,
    build_manifest,
    config_from_dict,
    config_to_dict,
    decode_record,
    encode_record,
    merge_store,
    model_workload_spec,
    run_shard,
    shard_indices,
    store_status,
    workload_from_spec,
)
from repro.dist.store import load_jsonl
from repro.harness.dse import (
    DesignPoint,
    PointFailure,
    pareto_frontier,
    sweep_design_space,
)
from repro.hw.params import VITCOD_DEFAULT, HardwareConfig
from repro.perf import cached_model_workload
from repro.sim.evaluator import AnalyticalEvaluator

from per_point import PerPoint

GRID = {"mac_lines": (16, 32, 64), "ae_compression": (None, 0.5)}
SPEC = model_workload_spec("deit-tiny", sparsity=0.9)


@pytest.fixture(scope="module")
def workload():
    return cached_model_workload("deit-tiny", sparsity=0.9)


class TestShardSpec:
    def test_parse(self):
        assert ShardSpec.parse("2/3") == ShardSpec(2, 3)
        assert str(ShardSpec(2, 3)) == "2/3"
        assert ShardSpec.parse(ShardSpec(1, 1)) == ShardSpec(1, 1)

    @pytest.mark.parametrize("bad", ["", "3", "0/3", "4/3", "a/3", "1/0",
                                     "-1/3", "1/-2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            ShardSpec.parse(bad)

    @pytest.mark.parametrize("size", [0, 1, 2, 5, 6, 7, 48, 97])
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 7])
    def test_partition_tiles_grid_exactly_once(self, size, count):
        """The K/N shards cover range(size) completely and disjointly."""
        chunks = [list(ShardSpec(k, count).indices(size))
                  for k in range(1, count + 1)]
        merged = sorted(i for chunk in chunks for i in chunk)
        assert merged == list(range(size))

    def test_shard_indices_convenience(self):
        assert list(shard_indices(7, "2/3")) == [1, 4]


#: Arbitrary weight vectors: 1-6 shards, weights 0-5, at least one positive.
weight_vectors = st.lists(
    st.integers(min_value=0, max_value=5), min_size=1, max_size=6
).filter(lambda weights: sum(weights) > 0)


class TestWeightedShardSpec:
    def test_parse_full_vector(self):
        spec = ShardSpec.parse("2/3@4,1,1")
        assert spec == ShardSpec(2, 3, weights=(4, 1, 1))
        assert spec.weight == 1
        assert str(spec) == "2/3@4,1,1"
        assert ShardSpec.parse(str(spec)) == spec

    def test_parse_single_weight_shorthand(self):
        """``K/N@W`` means "this shard weighs W, the others 1"."""
        assert ShardSpec.parse("2/3@4") == ShardSpec(2, 3, weights=(1, 4, 1))
        assert ShardSpec.parse("2/3@4").weight == 4

    def test_all_equal_weights_normalise_to_uniform(self):
        assert ShardSpec(2, 3, weights=(2, 2, 2)) == ShardSpec(2, 3)
        assert str(ShardSpec.parse("2/3@1,1,1")) == "2/3"
        assert ShardSpec.parse("1/1@5") == ShardSpec(1, 1)

    @pytest.mark.parametrize("bad", [
        "1/2@0,0",       # no positive weight
        "1/2@1,2,3",     # wrong vector length
        "1/2@-1,2",      # negative weight
        "1/2@a,b",       # not integers
        "1/2@1.5,2",     # not integers
        "1/2@",          # empty weight spec
    ])
    def test_parse_rejects_bad_weights(self, bad):
        with pytest.raises(ValueError):
            ShardSpec.parse(bad)

    def test_zero_weight_shard_owns_nothing(self):
        assert ShardSpec(1, 2, weights=(0, 1)).indices(6) == []
        assert list(ShardSpec(2, 2, weights=(0, 1)).indices(6)) == \
            list(range(6))

    def test_weighted_ownership_is_proportional(self):
        """When sum(weights) divides size, shares are exact."""
        weights = (3, 1)
        size = 12
        counts = [len(ShardSpec(k, 2, weights=weights).indices(size))
                  for k in (1, 2)]
        assert counts == [9, 3]

    @given(size=st.integers(min_value=0, max_value=60),
           weights=weight_vectors)
    @settings(max_examples=60, deadline=None)
    def test_weighted_partition_tiles_grid_exactly_once(self, size, weights):
        """Weighted shards cover range(size) completely and disjointly."""
        count = len(weights)
        chunks = [list(ShardSpec(k, count, weights=tuple(weights)).indices(size))
                  for k in range(1, count + 1)]
        merged = sorted(i for chunk in chunks for i in chunk)
        assert merged == list(range(size))

    @given(size=st.integers(min_value=0, max_value=40),
           weights=weight_vectors, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_owed_indices_never_overlap_own(self, size, weights, data):
        """Steal candidates exclude the shard's own slice by construction."""
        from repro.dist.runner import _owed_indices

        count = len(weights)
        index = data.draw(st.integers(min_value=1, max_value=count))
        recorded = data.draw(st.sets(st.integers(min_value=0, max_value=60)))
        shard = ShardSpec(index, count, weights=tuple(weights))
        owed = _owed_indices(size, shard, recorded)
        own = set(shard.indices(size))
        assert not own.intersection(owed)
        assert not recorded.intersection(owed)
        assert set(owed) | own | (recorded & set(range(size))) == \
            set(range(size))


class TestStoreFiles:
    def _records(self, tmp_path, lines):
        path = tmp_path / "f.jsonl"
        path.write_bytes(b"".join(lines))
        return path

    def test_truncated_final_line_tolerated(self, tmp_path):
        path = self._records(tmp_path, [b'{"i":0,"x":1}\n', b'{"i":1,"x'])
        assert load_jsonl(path) == [{"i": 0, "x": 1}]

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = self._records(
            tmp_path, [b'{"i":0}\n', b'{"i":1,"x\n', b'{"i":2}\n']
        )
        with pytest.raises(StoreCorruptError):
            load_jsonl(path)

    def test_missing_file_is_empty(self, tmp_path):
        assert load_jsonl(tmp_path / "absent.jsonl") == []

    def test_record_round_trip_bit_exact(self):
        point = DesignPoint(
            parameters=(("ae_compression", None), ("mac_lines", 32)),
            seconds=1.2345678901234567e-4,
            energy_joules=9.87654321e-2,
            area_proxy=256,
        )
        encoded = json.loads(json.dumps(encode_record(7, point)))
        index, decoded = decode_record(encoded)
        assert index == 7
        assert decoded == point  # dataclass eq: every field bit-equal

    def test_failure_record_round_trip(self):
        failure = PointFailure(parameters=(("mac_lines", 16),),
                               error="RuntimeError: boom")
        index, decoded = decode_record(encode_record(3, failure))
        assert index == 3 and decoded == failure

    def test_config_round_trip(self):
        config = HardwareConfig(num_mac_lines=32, frequency_hz=1e9)
        assert config_from_dict(config_to_dict(config)) == config

    def test_manifest_mismatch_detected(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        manifest = build_manifest(GRID, 2, AnalyticalEvaluator(),
                                  VITCOD_DEFAULT, SPEC)
        store.ensure_manifest(manifest)
        other = build_manifest({"mac_lines": (16,)}, 2,
                               AnalyticalEvaluator(), VITCOD_DEFAULT, SPEC)
        with pytest.raises(StoreMismatchError):
            store.ensure_manifest(other)
        # The identical manifest is accepted (another host joining in).
        assert store.ensure_manifest(manifest)["num_shards"] == 2


class _RecordingEvaluator:
    """Analytical scoring that counts calls and can poison one value.

    Serial in-process use only (call lists do not cross pools).  One class
    for counting and failing so every run against one store carries the
    same custom-evaluator spec in its manifest.
    """

    name = "recording"

    def __init__(self, poison=None):
        self.inner = PerPoint(AnalyticalEvaluator())
        self.poison = poison
        self.calls = []

    def __call__(self, workload, config, accel_kwargs):
        self.calls.append(config.num_mac_lines)
        if config.num_mac_lines == self.poison:
            raise RuntimeError("poisoned point")
        return self.inner(workload, config, accel_kwargs)


class TestShardMergeBitExact:
    @pytest.mark.parametrize("evaluator", ["analytical", "cycle", "hybrid"])
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
    def test_merge_equals_single_process_sweep(self, tmp_path, workload,
                                               evaluator, num_shards):
        """K-sharded stores reproduce sweep_design_space bit for bit."""
        serial = sweep_design_space(workload, GRID, evaluator=evaluator)
        store = tmp_path / "store"
        for k in range(1, num_shards + 1):
            result = run_shard(workload, GRID, f"{k}/{num_shards}", store,
                               evaluator=evaluator, workload_spec=SPEC)
            assert result.complete
        merged = merge_store(store)
        assert list(merged.points) == serial
        assert list(merged.frontier) == pareto_frontier(serial)
        assert merged.dropped == 0

    def test_hybrid_merge_is_resumable(self, tmp_path, workload):
        """A second merge of a hybrid store re-scores nothing."""
        store = tmp_path / "store"
        run_shard(workload, GRID, "1/1", store, evaluator="hybrid",
                  workload_spec=SPEC)
        first = merge_store(store)
        fine_file = ResultStore(store).fine_path
        stamp = fine_file.read_bytes()
        again = merge_store(store)
        assert again.points == first.points
        assert fine_file.read_bytes() == stamp  # no new records appended

    def test_merge_without_workload_spec_needs_workload(self, tmp_path,
                                                        workload):
        store = tmp_path / "store"
        run_shard(workload, GRID, "1/1", store, evaluator="hybrid")
        with pytest.raises(ValueError, match="workload"):
            merge_store(store)
        merged = merge_store(store, workload=workload)
        serial = sweep_design_space(workload, GRID, evaluator="hybrid")
        assert list(merged.points) == serial


class TestResume:
    def test_rerun_skips_completed_indices(self, tmp_path, workload):
        store = tmp_path / "store"
        first = _RecordingEvaluator()
        run_shard(workload, GRID, "1/2", store, evaluator=first,
                  workload_spec=SPEC)
        assert len(first.calls) == 3  # shard 1/2 owns indices 0, 2, 4
        second = _RecordingEvaluator()
        result = run_shard(workload, GRID, "1/2", store, evaluator=second,
                           workload_spec=SPEC)
        assert second.calls == []  # nothing re-evaluated
        assert result.evaluated == 0 and result.skipped == 3

    def test_resume_after_kill_truncated_line(self, tmp_path, workload):
        """A writer killed mid-append loses only the point in flight."""
        store = tmp_path / "store"
        run_shard(workload, GRID, "1/2", store,
                  evaluator=_RecordingEvaluator(), workload_spec=SPEC)
        path = ResultStore(store).shard_path(ShardSpec(1, 2))
        whole = path.read_bytes()
        lines = whole.strip().split(b"\n")
        # Simulate the kill: drop the last record's tail mid-line.
        path.write_bytes(b"\n".join(lines[:-1]) + b"\n" + lines[-1][:7])
        counting = _RecordingEvaluator()
        result = run_shard(workload, GRID, "1/2", store, evaluator=counting,
                           workload_spec=SPEC)
        assert len(counting.calls) == 1  # only the truncated point
        assert result.evaluated == 1 and result.skipped == 2
        run_shard(workload, GRID, "2/2", store,
                  evaluator=_RecordingEvaluator(), workload_spec=SPEC)
        merged = merge_store(store)
        # The recording wrapper scores exactly like the analytical default.
        assert list(merged.points) == sweep_design_space(workload, GRID)

    def test_failures_are_completion_records(self, tmp_path, workload):
        """A deterministically failing point is not retried on resume."""
        store = tmp_path / "store"
        result = run_shard(workload, GRID, "1/1", store,
                           evaluator=_RecordingEvaluator(poison=32),
                           workload_spec=SPEC)
        assert result.failed == 2  # mac_lines=32 under both ae settings
        counting = _RecordingEvaluator()
        rerun = run_shard(workload, GRID, "1/1", store, evaluator=counting,
                          workload_spec=SPEC)
        assert counting.calls == [] and rerun.failed == 2
        status = store_status(store)
        assert status.complete and status.failed == 2
        with pytest.warns(RuntimeWarning, match="poisoned point"):
            merged = merge_store(store)
        with pytest.warns(RuntimeWarning):
            serial = sweep_design_space(
                workload, GRID, evaluator=_RecordingEvaluator(poison=32)
            )
        assert list(merged.points) == serial
        assert merged.dropped == 2


class TestMergeGuards:
    def test_incomplete_store_raises(self, tmp_path, workload):
        store = tmp_path / "store"
        run_shard(workload, GRID, "1/3", store, workload_spec=SPEC)
        with pytest.raises(IncompleteStoreError, match="4 missing"):
            merge_store(store)

    def test_foreign_partition_file_raises(self, tmp_path, workload):
        store = tmp_path / "store"
        run_shard(workload, GRID, "1/2", store, workload_spec=SPEC)
        run_shard(workload, GRID, "2/2", store, workload_spec=SPEC)
        foreign = Path(store) / "shard-0001-of-0004.jsonl"
        foreign.write_text("")
        with pytest.raises(StoreMismatchError, match="partition"):
            merge_store(store)

    def test_unmerged_store_without_manifest(self, tmp_path):
        with pytest.raises(Exception, match="not a result store"):
            merge_store(tmp_path / "nowhere")


class TestStatus:
    def test_partial_progress(self, tmp_path, workload):
        store = tmp_path / "store"
        run_shard(workload, GRID, "2/3", store, workload_spec=SPEC)
        status = store_status(store)
        assert status.grid_size == 6 and not status.complete
        per_shard = {str(s.shard): (s.done, s.total) for s in status.shards}
        assert per_shard == {"1/3": (0, 2), "2/3": (2, 2), "3/3": (0, 2)}
        assert status.done == 2 and status.failed == 0
        assert status.fraction_done == pytest.approx(2 / 6)

    def test_records_carry_timestamps(self, tmp_path, workload):
        store = tmp_path / "store"
        run_shard(workload, GRID, "1/1", store, workload_spec=SPEC)
        shard_file = ResultStore(store).shard_path(ShardSpec(1, 1))
        records = load_jsonl(shard_file)
        assert len(records) == 6
        assert all(isinstance(r.get("t"), float) for r in records)
        stamps = [r["t"] for r in records]
        assert stamps == sorted(stamps)  # appended in completion order

    def _seed_store(self, tmp_path, workload, shard, timestamps,
                    num_shards=2):
        """A store whose shard holds records with the given timestamps."""
        from repro.dist.store import JsonlAppender
        from repro.harness.dse import iter_indexed_design_points

        store = ResultStore(tmp_path / "store")
        store.ensure_manifest(build_manifest(
            GRID, num_shards, AnalyticalEvaluator(), VITCOD_DEFAULT, SPEC
        ))
        spec = ShardSpec.parse(shard)
        owned = list(spec.indices(6))
        pairs = list(iter_indexed_design_points(
            workload, GRID, owned[:len(timestamps)]
        ))
        with JsonlAppender(store.shard_path(spec)) as out:
            for (index, point), stamp in zip(pairs, timestamps):
                out.append(encode_record(index, point, timestamp=stamp))
        return store.root

    def test_shard_eta_from_timestamps(self, tmp_path, workload):
        """2 records 10 s apart -> 0.1 points/s -> 1 pending = 10 s."""
        store = self._seed_store(tmp_path, workload, "1/2",
                                 [100.0, 110.0])
        status = store_status(store)
        by_shard = {str(s.shard): s for s in status.shards}
        assert by_shard["1/2"].eta_seconds == pytest.approx(10.0)
        # The other shard has no records at all: rate unknown.
        assert by_shard["2/2"].eta_seconds is None
        # Study-level ETA is unknown while any shard's rate is.
        assert status.eta_seconds is None

    def test_complete_shard_eta_zero(self, tmp_path, workload):
        store = self._seed_store(tmp_path, workload, "1/1",
                                 [10.0, 11.0, 12.0, 13.0, 14.0, 15.0],
                                 num_shards=1)
        status = store_status(store)
        assert status.complete
        assert status.shards[0].eta_seconds == 0.0
        assert status.eta_seconds == 0.0

    def test_single_record_eta_unknown(self, tmp_path, workload):
        store = self._seed_store(tmp_path, workload, "1/2", [42.0])
        status = store_status(store)
        by_shard = {str(s.shard): s for s in status.shards}
        assert by_shard["1/2"].eta_seconds is None

    def test_untimestamped_legacy_records_tolerated(self, tmp_path,
                                                    workload):
        """Stores written before records carried ``t`` still report."""
        from repro.dist.store import JsonlAppender
        from repro.harness.dse import iter_indexed_design_points

        store = ResultStore(tmp_path / "store")
        store.ensure_manifest(build_manifest(
            GRID, 1, AnalyticalEvaluator(), VITCOD_DEFAULT, SPEC
        ))
        pairs = list(iter_indexed_design_points(workload, GRID, [0, 1]))
        with JsonlAppender(store.shard_path(ShardSpec(1, 1))) as out:
            for index, point in pairs:
                record = encode_record(index, point)
                del record["t"]
                out.append(record)
        status = store_status(store.root)
        assert status.done == 2
        assert status.shards[0].eta_seconds is None

    def test_status_cli_prints_percent_and_eta(self, tmp_path, workload,
                                               capsys):
        from repro.cli import main

        store = self._seed_store(tmp_path, workload, "1/2", [100.0, 110.0])
        assert main(["dse-status", str(store)]) == 0
        captured = capsys.readouterr().out
        assert "done%" in captured and "eta" in captured
        assert "67%" in captured  # shard 1/2 holds 2 of its 3 points
        assert "10s" in captured  # shard 1/2's pending point at 0.1 pt/s
        assert "2/6 grid points done (33%)" in captured
        assert "ETA ?" in captured  # shard 2/2's rate is unknown


class TestWorkloadSpec:
    def test_spec_reconstructs_cached_workload(self, workload):
        assert workload_from_spec(SPEC) is workload  # same cache entry

    def test_opaque_spec_rejected(self):
        with pytest.raises(ValueError):
            workload_from_spec({"kind": "opaque"})


class TestCli:
    GRID_ARGS = ["--grid", "mac_lines=16,32", "--grid",
                 "ae_compression=none,0.5"]

    def test_shard_status_merge_in_process(self, tmp_path, capsys):
        from repro.cli import main

        store = str(tmp_path / "store")
        for k in (1, 2):
            assert main(["dse-shard", "--shard", f"{k}/2", "--out", store,
                         "--models", "deit-tiny"] + self.GRID_ARGS) == 0
        assert main(["dse-status", store]) == 0
        out_json = str(tmp_path / "merged.json")
        assert main(["dse-merge", store, "--json", out_json]) == 0
        captured = capsys.readouterr().out
        assert "4/4 grid points done" in captured
        assert "4 points (analytical evaluator)" in captured
        merged = json.loads(Path(out_json).read_text())
        assert len(merged["points"]) == 4

    def test_shard_requires_arguments(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["dse-shard", "--out", "somewhere"])
        with pytest.raises(SystemExit):
            main(["dse-shard", "--shard", "1/2"])
        with pytest.raises(SystemExit):
            main(["dse-merge"])

    @pytest.mark.parametrize("command", [
        ["dse-shard", "--shard", "1/1"],
        ["dse-fleet"],
        ["dse-merge"],
    ])
    def test_n_jobs_is_dse_only(self, tmp_path, command):
        """Shards and merges score in one process: --n-jobs is refused
        before any store is touched, pointing at the fleet instead."""
        from repro.cli import main

        store = tmp_path / "store"
        with pytest.raises(SystemExit, match="dse-fleet --num-shards"):
            main(command + ["--out", str(store), "--n-jobs", "2"]
                 + self.GRID_ARGS)
        assert not store.exists()

    @pytest.mark.parametrize("n_jobs", ["0", "-3"])
    def test_dse_rejects_n_jobs_below_one(self, tmp_path, n_jobs):
        """dse refuses a worker budget below 1 instead of silently
        sweeping serially, as it refuses --batch-size below 1."""
        from repro.cli import main

        out = tmp_path / "out.json"
        with pytest.raises(SystemExit, match=(
                f"^--n-jobs must be a positive worker count, got {n_jobs}$")):
            main(["dse", "--models", "deit-tiny", "--n-jobs", n_jobs,
                  "--json", str(out)] + self.GRID_ARGS)
        assert not out.exists()

    def test_separate_processes_match_serial(self, tmp_path):
        """Two real CLI processes shard one store; merge == serial sweep."""
        store = str(tmp_path / "store")
        base = [sys.executable, "-m", "repro"]
        env = dict(os.environ)
        # The harness may run with a relative PYTHONPATH=src; the child
        # processes run from tmp_path, so pin the package root absolutely.
        import repro
        package_root = str(Path(repro.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [package_root] + ([env["PYTHONPATH"]] if "PYTHONPATH" in env
                              else [])
        )
        for k in (1, 2):
            subprocess.run(
                base + ["dse-shard", "--shard", f"{k}/2", "--out", store,
                        "--models", "deit-tiny"] + self.GRID_ARGS,
                check=True, capture_output=True, cwd=str(tmp_path), env=env,
            )
        workload = cached_model_workload("deit-tiny", sparsity=0.9)
        grid = {"mac_lines": (16, 32), "ae_compression": (None, 0.5)}
        serial = sweep_design_space(workload, grid)
        merged = merge_store(store)
        assert list(merged.points) == serial


class TestOpaqueWorkloadGuard:
    """Opaque stores pin the workload by structural fingerprint."""

    def test_different_workloads_cannot_mix(self, tmp_path, workload):
        other = cached_model_workload("deit-small", sparsity=0.9)
        store = tmp_path / "store"
        run_shard(workload, GRID, "1/2", store)  # no workload_spec
        with pytest.raises(StoreMismatchError):
            run_shard(other, GRID, "2/2", store)

    def test_same_workload_structure_accepted(self, tmp_path, workload):
        from repro.hw import model_workload
        from repro.models import get_config

        store = tmp_path / "store"
        run_shard(workload, GRID, "1/2", store)
        # A freshly built (different object, equal structure) workload
        # fingerprints identically — hosts don't share Python identity.
        rebuilt = model_workload(get_config("deit-tiny"), sparsity=0.9)
        result = run_shard(rebuilt, GRID, "2/2", store)
        assert result.complete
        merged = merge_store(store)
        assert list(merged.points) == sweep_design_space(workload, GRID)

    def test_hybrid_merge_rejects_wrong_workload(self, tmp_path, workload):
        store = tmp_path / "store"
        run_shard(workload, GRID, "1/1", store, evaluator="hybrid")
        wrong = cached_model_workload("deit-small", sparsity=0.9)
        with pytest.raises(StoreMismatchError, match="fingerprint"):
            merge_store(store, workload=wrong)

    def test_unterminated_complete_record_survives_resume(self, tmp_path,
                                                          workload):
        """A final record missing only its newline is terminated, not
        truncated — the loader counted it as done, so the repair must
        keep it or the store would silently lose that grid point."""
        store = tmp_path / "store"
        run_shard(workload, GRID, "1/2", store,
                  evaluator=_RecordingEvaluator(), workload_spec=SPEC)
        path = ResultStore(store).shard_path(ShardSpec(1, 2))
        data = path.read_bytes()
        assert data.endswith(b"\n")
        path.write_bytes(data[:-1])  # killed between record and newline
        counting = _RecordingEvaluator()
        result = run_shard(workload, GRID, "1/2", store, evaluator=counting,
                           workload_spec=SPEC)
        assert counting.calls == [] and result.skipped == 3
        assert path.read_bytes() == data  # newline restored, nothing lost
        run_shard(workload, GRID, "2/2", store,
                  evaluator=_RecordingEvaluator(), workload_spec=SPEC)
        assert list(merge_store(store).points) == \
            sweep_design_space(workload, GRID)

    def test_recipe_spec_is_fingerprint_checked(self, tmp_path):
        """A workload_spec that does not describe the evaluated workload
        cannot mix with shards that honour the recipe."""
        wrong = cached_model_workload("deit-small", sparsity=0.9)
        right = cached_model_workload("deit-tiny", sparsity=0.9)
        store = tmp_path / "store"
        run_shard(wrong, GRID, "1/2", store, workload_spec=SPEC)
        with pytest.raises(StoreMismatchError):
            run_shard(right, GRID, "2/2", store, workload_spec=SPEC)


class TestWeightedShards:
    @pytest.mark.parametrize("evaluator", ["analytical", "cycle", "hybrid"])
    def test_weighted_merge_equals_serial_sweep(self, tmp_path, workload,
                                                evaluator):
        serial = sweep_design_space(workload, GRID, evaluator=evaluator)
        store = tmp_path / "store"
        for k in (1, 2):
            result = run_shard(workload, GRID, f"{k}/2@2,1", store,
                               evaluator=evaluator, workload_spec=SPEC)
            assert result.complete
        merged = merge_store(store)
        assert list(merged.points) == serial
        assert list(merged.frontier) == pareto_frontier(serial)
        assert merged.duplicates == 0

    def test_weighted_ownership_recorded_in_shard_files(self, tmp_path,
                                                        workload):
        store = tmp_path / "store"
        run_shard(workload, GRID, "1/2@2,1", store, workload_spec=SPEC)
        records = load_jsonl(ResultStore(store).shard_path(ShardSpec(1, 2)))
        # sum(weights)=3: shard 1 owns residues {0,1} -> 0,1,3,4 of 6.
        assert sorted(r["i"] for r in records) == [0, 1, 3, 4]

    def test_manifest_pins_weights_for_later_shards(self, tmp_path,
                                                    workload):
        """A shard launched without weights adopts the store's vector."""
        store = tmp_path / "store"
        run_shard(workload, GRID, "1/2@2,1", store, workload_spec=SPEC)
        result = run_shard(workload, GRID, "2/2", store, workload_spec=SPEC)
        assert result.shard == ShardSpec(2, 2, weights=(2, 1))
        assert result.total == 2  # residue {2} of 6 -> indices 2, 5
        assert list(merge_store(store).points) == \
            sweep_design_space(workload, GRID)

    def test_conflicting_weights_rejected(self, tmp_path, workload):
        store = tmp_path / "store"
        run_shard(workload, GRID, "1/2@2,1", store, workload_spec=SPEC)
        with pytest.raises(StoreMismatchError):
            run_shard(workload, GRID, "2/2@1,2", store, workload_spec=SPEC)
        # A weighted shard cannot join a store created uniform either.
        uniform = tmp_path / "uniform"
        run_shard(workload, GRID, "1/2", uniform, workload_spec=SPEC)
        with pytest.raises(StoreMismatchError):
            run_shard(workload, GRID, "2/2@2,1", uniform, workload_spec=SPEC)


class TestWorkStealing:
    def test_stealing_completes_missing_shard(self, tmp_path, workload):
        """One stealing shard finishes an absent peer's slice."""
        serial = sweep_design_space(workload, GRID)
        store = tmp_path / "store"
        result = run_shard(workload, GRID, "2/2", store, workload_spec=SPEC,
                           steal=True)
        assert result.evaluated == 3 and result.stolen == 3
        merged = merge_store(store)
        assert list(merged.points) == serial
        assert merged.duplicates == 0
        status = store_status(store)
        assert status.complete
        by_shard = {str(s.shard): s for s in status.shards}
        assert by_shard["1/2"].stolen == 3 and by_shard["1/2"].done == 3
        assert by_shard["2/2"].steals == 3 and by_shard["2/2"].stolen == 0
        assert status.stolen == 3 and status.steals == 3

    def test_victim_skips_stolen_work(self, tmp_path, workload):
        """A late victim re-evaluates nothing a stealer already recorded."""
        store = tmp_path / "store"
        run_shard(workload, GRID, "2/2", store, workload_spec=SPEC,
                  evaluator=_RecordingEvaluator(), steal=True)
        counting = _RecordingEvaluator()
        result = run_shard(workload, GRID, "1/2", store, workload_spec=SPEC,
                           evaluator=counting)
        assert counting.calls == []
        assert result.evaluated == 0 and result.skipped == 3
        assert list(merge_store(store).points) == \
            sweep_design_space(workload, GRID)

    def test_stolen_failures_are_completion_records(self, tmp_path,
                                                    workload):
        """A poisoned point stays a durable failure when stolen."""
        store = tmp_path / "store"
        run_shard(workload, GRID, "2/2", store, workload_spec=SPEC,
                  evaluator=_RecordingEvaluator(poison=32), steal=True)
        status = store_status(store)
        assert status.complete and status.failed == 2
        by_shard = {str(s.shard): s for s in status.shards}
        # mac_lines=32 sits at grid indices 1 (own) and 4 (stolen).
        assert by_shard["2/2"].failed == 1
        assert by_shard["1/2"].failed == 1 and by_shard["1/2"].stolen == 3
        with pytest.warns(RuntimeWarning, match="poisoned point"):
            merged = merge_store(store)
        assert merged.dropped == 2

    def test_zero_weight_shard_is_pure_stealer(self, tmp_path, workload):
        store = tmp_path / "store"
        result = run_shard(workload, GRID, "1/2@0,1", store,
                           workload_spec=SPEC, steal=True)
        assert result.total == 0 and result.evaluated == 0
        assert result.stolen == 6
        late = run_shard(workload, GRID, "2/2", store, workload_spec=SPEC,
                         evaluator=None)
        assert late.evaluated == 0 and late.skipped == 6
        assert list(merge_store(store).points) == \
            sweep_design_space(workload, GRID)

    def test_steal_claims_are_released_on_success(self, tmp_path, workload):
        store = tmp_path / "store"
        run_shard(workload, GRID, "2/2", store, workload_spec=SPEC,
                  steal=True)
        claims = ResultStore(store).claims_dir
        assert not claims.is_dir() or list(claims.glob("*.claim")) == []

    def test_live_claim_blocks_stealing(self, tmp_path, workload):
        """A fresh claim by another stealer is honoured (no busy-wait)."""
        from repro.dist.runner import _claim_path, _owed_indices

        store_path = tmp_path / "store"
        run_shard(workload, GRID, "2/2", store_path, workload_spec=SPEC)
        store = ResultStore(store_path)
        owed = _owed_indices(6, ShardSpec(2, 2), {1, 3, 5})
        claim = _claim_path(store, owed)
        claim.parent.mkdir(parents=True, exist_ok=True)
        claim.write_text("held by a live peer")
        result = run_shard(workload, GRID, "2/2", store_path,
                           workload_spec=SPEC, steal=True)
        assert result.stolen == 0
        with pytest.raises(IncompleteStoreError):
            merge_store(store_path)

    def test_expired_claim_is_taken_over(self, tmp_path, workload):
        from repro.dist.runner import _claim_path, _owed_indices

        store_path = tmp_path / "store"
        run_shard(workload, GRID, "2/2", store_path, workload_spec=SPEC)
        store = ResultStore(store_path)
        owed = _owed_indices(6, ShardSpec(2, 2), {1, 3, 5})
        claim = _claim_path(store, owed)
        claim.parent.mkdir(parents=True, exist_ok=True)
        claim.write_text("abandoned by a dead peer")
        stale = time.time() - 3600.0
        os.utime(claim, (stale, stale))
        result = run_shard(workload, GRID, "2/2", store_path,
                           workload_spec=SPEC, steal=True, claim_ttl=600.0)
        assert result.stolen == 3
        assert list(merge_store(store_path).points) == \
            sweep_design_space(workload, GRID)


class TestClaimPrimitives:
    def test_exclusive_creation(self, tmp_path):
        from repro.dist.runner import _release_claim, _try_claim

        claim = tmp_path / "claims" / "steal-00000000-00000004.claim"
        shard = ShardSpec(2, 2)
        assert _try_claim(claim, shard, ttl=600.0)
        assert claim.exists()
        assert not _try_claim(claim, shard, ttl=600.0)  # fresh -> blocked
        _release_claim(claim)
        assert not claim.exists()
        _release_claim(claim)  # idempotent

    def test_ttl_zero_ignores_existing_claims(self, tmp_path):
        from repro.dist.runner import _try_claim

        claim = tmp_path / "claims" / "steal-00000000-00000004.claim"
        assert _try_claim(claim, ShardSpec(1, 2), ttl=600.0)
        assert _try_claim(claim, ShardSpec(2, 2), ttl=0)

    def test_stale_claim_taken_over(self, tmp_path):
        from repro.dist.runner import _try_claim

        claim = tmp_path / "claims" / "steal-00000000-00000004.claim"
        assert _try_claim(claim, ShardSpec(1, 2), ttl=600.0)
        stale = time.time() - 3600.0
        os.utime(claim, (stale, stale))
        assert _try_claim(claim, ShardSpec(2, 2), ttl=600.0)


class TestDuplicateTolerantMerge:
    def _complete_store(self, tmp_path, workload):
        store = tmp_path / "store"
        for k in (1, 2):
            run_shard(workload, GRID, f"{k}/2", store, workload_spec=SPEC)
        return ResultStore(store)

    def test_bit_identical_duplicate_tolerated(self, tmp_path, workload):
        store = self._complete_store(tmp_path, workload)
        record = dict(load_jsonl(store.shard_path(ShardSpec(1, 2)))[0])
        record["t"] = 9.9e9  # timestamps may differ between copies
        steal_file = store.steal_path(ShardSpec(2, 2))
        steal_file.write_text(json.dumps(record) + "\n")
        merged = merge_store(store.root)
        assert merged.duplicates == 1
        assert list(merged.points) == sweep_design_space(workload, GRID)

    def test_conflicting_duplicate_raises(self, tmp_path, workload):
        store = self._complete_store(tmp_path, workload)
        record = dict(load_jsonl(store.shard_path(ShardSpec(1, 2)))[0])
        record["s"] = record["s"] * 2  # a different result for one index
        steal_file = store.steal_path(ShardSpec(2, 2))
        steal_file.write_text(json.dumps(record) + "\n")
        with pytest.raises(StoreCorruptError, match="conflicting"):
            merge_store(store.root)

    def test_steal_file_holding_own_index_raises(self, tmp_path, workload):
        store = self._complete_store(tmp_path, workload)
        record = load_jsonl(store.shard_path(ShardSpec(2, 2)))[0]
        steal_file = store.steal_path(ShardSpec(2, 2))
        steal_file.write_text(json.dumps(record) + "\n")
        with pytest.raises(StoreCorruptError, match="owns outright"):
            merge_store(store.root)

    def test_foreign_partition_steal_file_raises(self, tmp_path, workload):
        store = self._complete_store(tmp_path, workload)
        (store.root / "steal-0001-of-0004.jsonl").write_text("")
        with pytest.raises(StoreMismatchError, match="partition"):
            merge_store(store.root)


class _KillableStealer:
    """A real subprocess running a handicapped stealing shard."""

    SCRIPT = """\
import sys
from repro.dist import model_workload_spec, run_shard
from repro.perf import cached_model_workload

GRID = {"mac_lines": (16, 32, 64), "ae_compression": (None, 0.5)}
workload = cached_model_workload("deit-tiny", sparsity=0.9)
run_shard(
    workload, GRID, sys.argv[1], sys.argv[2],
    workload_spec=model_workload_spec("deit-tiny", sparsity=0.9),
    steal=True, handicap=float(sys.argv[3]),
)
"""

    def __init__(self, tmp_path, shard, store, handicap):
        import repro

        script = tmp_path / "stealer.py"
        script.write_text(self.SCRIPT)
        env = dict(os.environ)
        package_root = str(Path(repro.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [package_root] + ([env["PYTHONPATH"]] if "PYTHONPATH" in env
                              else [])
        )
        self.proc = subprocess.Popen(
            [sys.executable, str(script), shard, str(store), str(handicap)],
            cwd=str(tmp_path), env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )


class TestKillMidSteal:
    """Acceptance: a shard killed mid-steal leaves the store mergeable."""

    def _kill_mid_steal(self, tmp_path, workload):
        """Complete shard 1/2, then SIGKILL it mid-way through stealing
        shard 2's slice.  Returns the store root."""
        store = tmp_path / "store"
        run_shard(workload, GRID, "1/2", store, workload_spec=SPEC)
        stealer = _KillableStealer(tmp_path, "1/2", store, handicap=0.3)
        steal_file = ResultStore(store).steal_path(ShardSpec(1, 2))
        deadline = time.monotonic() + 60.0
        try:
            while time.monotonic() < deadline:
                if len(load_jsonl(steal_file)) >= 1:
                    break
                if stealer.proc.poll() is not None:
                    pytest.fail("stealer exited before it could be killed")
                time.sleep(0.02)
            else:
                pytest.fail("stealer never recorded a stolen point")
            stealer.proc.send_signal(signal.SIGKILL)
            stealer.proc.wait(timeout=30)
        finally:
            if stealer.proc.poll() is None:
                stealer.proc.kill()
                stealer.proc.wait(timeout=30)
        stolen = [r["i"] for r in load_jsonl(steal_file)]
        assert stolen and set(stolen) < {1, 3, 5}  # killed mid-steal
        claims = list(ResultStore(store).claims_dir.glob("*.claim"))
        assert claims  # the claim outlived its writer
        with pytest.raises(IncompleteStoreError):
            merge_store(store)  # incomplete, but not corrupt
        return store

    def test_resumed_stealer_completes(self, tmp_path, workload):
        store = self._kill_mid_steal(tmp_path, workload)
        # claim_ttl=0 ignores the orphaned claim instead of waiting for
        # its TTL; the resumed stealer re-claims and finishes the range.
        result = run_shard(workload, GRID, "1/2", store, workload_spec=SPEC,
                           steal=True, claim_ttl=0)
        assert result.evaluated == 0 and result.stolen >= 1
        merged = merge_store(store)
        assert list(merged.points) == sweep_design_space(workload, GRID)

    def test_victim_completes_after_stealer_death(self, tmp_path, workload):
        store = self._kill_mid_steal(tmp_path, workload)
        result = run_shard(workload, GRID, "2/2", store, workload_spec=SPEC)
        assert 1 <= result.evaluated <= 2  # only the unstolen remainder
        merged = merge_store(store)
        assert list(merged.points) == sweep_design_space(workload, GRID)
        assert merged.duplicates == 0


class TestElasticCli:
    GRID_ARGS = ["--grid", "mac_lines=16,32", "--grid",
                 "ae_compression=none,0.5"]

    def test_weighted_stealing_shard_completes_store(self, tmp_path,
                                                     capsys):
        from repro.cli import main

        store = str(tmp_path / "store")
        assert main(["dse-shard", "--shard", "1/2@1,3", "--out", store,
                     "--models", "deit-tiny", "--steal"]
                    + self.GRID_ARGS) == 0
        assert main(["dse-status", store]) == 0
        merged_json = str(tmp_path / "merged.json")
        assert main(["dse-merge", store, "--json", merged_json]) == 0
        captured = capsys.readouterr().out
        assert "3 stolen from other shards" in captured
        assert "4/4 grid points done" in captured
        serial_json = str(tmp_path / "serial.json")
        assert main(["dse", "--models", "deit-tiny", "--json", serial_json]
                    + self.GRID_ARGS) == 0
        merged = json.loads(Path(merged_json).read_text())
        serial = json.loads(Path(serial_json).read_text())
        assert merged["points"] == serial["points"]

    def test_status_reports_stolen_counts(self, tmp_path, capsys):
        from repro.cli import main

        store = str(tmp_path / "store")
        assert main(["dse-shard", "--shard", "2/2", "--out", store,
                     "--models", "deit-tiny", "--steal"]
                    + self.GRID_ARGS) == 0
        assert main(["dse-status", store, "--json",
                     str(tmp_path / "status.json")]) == 0
        captured = capsys.readouterr().out
        assert "stolen" in captured and "steals" in captured
        status = json.loads((tmp_path / "status.json").read_text())
        assert status["complete"] and status["stolen"] == 2
        by_shard = {s["shard"]: s for s in status["shards"]}
        assert by_shard["1/2"]["stolen"] == 2
        assert by_shard["2/2"]["steals"] == 2

    def test_bad_steal_flags_rejected(self, tmp_path):
        from repro.cli import main

        store = str(tmp_path / "store")
        base = ["dse-shard", "--shard", "1/1", "--out", store]
        with pytest.raises(SystemExit):
            main(base + ["--steal-chunk", "0"])
        with pytest.raises(SystemExit):
            main(base + ["--handicap", "-1"])
