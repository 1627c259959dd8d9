"""Tests for seeded fault injection (:mod:`repro.faults`).

The contract under test: plans are deterministic in their seed, a true
no-op when inactive, ride the evaluator wire format unchanged, and the
dist layer's retry/repair machinery converges a faulty study to the
bit-identical healthy result.
"""

import json
import logging
import os
import re
import subprocess
import threading
import time

import pytest

import repro
from repro.dist import (
    ResultStore,
    ShardSpec,
    decode_record,
    encode_record,
    merge_store,
    model_workload_spec,
    run_fleet,
    run_shard,
    store_status,
)
from repro.dist.fleet import _Shard
from repro.dist.store import JsonlAppender, load_jsonl, record_payload
from repro.faults import (
    FaultInjectedError,
    FaultPlan,
    FaultPlanError,
    FaultyEvaluator,
    TransientError,
    activate,
    active_plan,
    plan_from_spec,
)
from repro.harness.dse import PointFailure, sweep_design_space
from repro.perf import cached_model_workload
from repro.sim.evaluator import (
    AnalyticalEvaluator,
    evaluator_from_spec,
    evaluator_spec,
)

GRID = {"mac_lines": (16, 32, 64), "ae_compression": (None, 0.5)}
SPEC = model_workload_spec("deit-tiny", sparsity=0.9)


@pytest.fixture(scope="module")
def workload():
    return cached_model_workload("deit-tiny", sparsity=0.9)


class TestFaultPlan:
    def test_spec_round_trip(self):
        spec = {"seed": 7, "evaluator_error_rate": 0.25, "torn_write": True,
                "kill_after_records": 3}
        assert plan_from_spec(spec).spec() == spec

    def test_defaults_serialize_empty(self):
        assert FaultPlan().spec() == {}

    def test_scope_never_serialized(self, tmp_path):
        plan = plan_from_spec({"torn_write": True}).scoped(tmp_path)
        assert plan.scope == tmp_path
        assert "scope" not in plan.spec()

    @pytest.mark.parametrize("bad", [
        {"nope": 1},
        {"seed": "x"},
        {"evaluator_error_rate": 1.5},
        {"evaluator_error_rate": True},
        {"evaluator_error_attempts": 0},
        {"evaluator_hang_s": -1},
        {"torn_write": 1},
        {"kill_after_records": 0},
        "not-a-dict",
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(FaultPlanError):
            plan_from_spec(bad)

    def test_selection_is_seed_deterministic(self):
        plan = FaultPlan(seed=3, evaluator_error_rate=0.3)
        keys = [f"point-{i}" for i in range(200)]
        picked = {k for k in keys
                  if plan._selected("evaluator_error", k, 0.3)}
        again = {k for k in keys
                 if plan._selected("evaluator_error", k, 0.3)}
        assert picked == again
        assert 0 < len(picked) < len(keys)  # a real subset
        other = FaultPlan(seed=4, evaluator_error_rate=0.3)
        assert picked != {k for k in keys
                          if other._selected("evaluator_error", k, 0.3)}

    def test_one_shot_marker_is_durable_across_instances(self, tmp_path):
        first = plan_from_spec({"torn_write": True}).scoped(tmp_path)
        assert first.torn_write_fault(tmp_path / "a.jsonl")
        # A relaunched process builds a fresh plan over the same scope:
        # the marker file says the fault was already spent.
        second = plan_from_spec({"torn_write": True}).scoped(tmp_path)
        assert not second.torn_write_fault(tmp_path / "a.jsonl")

    def test_out_of_scope_paths_untouched(self, tmp_path):
        plan = plan_from_spec({"torn_write": True,
                               "fsync_error": True}).scoped(tmp_path / "in")
        assert not plan.torn_write_fault(tmp_path / "outside.jsonl")
        plan.fsync_fault(tmp_path / "outside.jsonl")  # no raise

    def test_no_plan_active_by_default(self):
        assert active_plan() is None

    def test_activation_scopes_and_restores(self):
        plan = FaultPlan()
        with activate(plan) as active:
            assert active is plan and active_plan() is plan
        assert active_plan() is None

    def test_nested_activation_restores_the_outer_plan(self):
        outer, inner = FaultPlan(seed=1), FaultPlan(seed=2)
        with activate(outer):
            with activate(inner):
                assert active_plan() is inner
            assert active_plan() is outer
        assert active_plan() is None

    def test_activation_is_per_thread(self):
        """A enters, B enters, A exits: B keeps its plan, A's never leaks."""
        plans = {"A": FaultPlan(seed=1), "B": FaultPlan(seed=2)}
        step = {name: threading.Event() for name in
                ("a_in", "b_in", "a_out", "b_checked")}
        seen = {}

        def thread_a():
            with activate(plans["A"]):
                step["a_in"].set()
                step["b_in"].wait(10)
                seen["A inside"] = active_plan()
            seen["A after"] = active_plan()
            step["a_out"].set()

        def thread_b():
            step["a_in"].wait(10)
            with activate(plans["B"]):
                step["b_in"].set()
                step["a_out"].wait(10)
                seen["B after A exits"] = active_plan()
            seen["B after"] = active_plan()

        threads = [threading.Thread(target=thread_a),
                   threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == {
            "A inside": plans["A"],
            "A after": None,
            "B after A exits": plans["B"],
            "B after": None,
        }
        assert active_plan() is None  # the main thread never saw either

    def test_claim_delay_sleeps(self):
        plan = FaultPlan(claim_delay_s=0.05)
        begin = time.monotonic()
        plan.claim_fault()
        assert time.monotonic() - begin >= 0.04


class TestFaultyEvaluator:
    def test_transient_then_identical_result(self, workload):
        inner = AnalyticalEvaluator()
        faulty = FaultyEvaluator(
            inner, {"evaluator_error_rate": 1.0, "evaluator_error_attempts": 2}
        )
        from repro.hw.params import VITCOD_DEFAULT
        args = (workload, VITCOD_DEFAULT, ["mac_lines"], [(16,), (32,)])
        for _ in range(2):
            assert all(isinstance(result, FaultInjectedError)
                       for result in faulty.evaluate_batch(*args))
        assert faulty.evaluate_batch(*args) == inner.evaluate_batch(*args)

    @pytest.mark.parametrize("seed, chaos_faults, serve_faults",
                             [(5, 1, 1), (7, 2, 2), (3, 5, 3)])
    def test_faulty_points_keyed_by_parameters(self, workload, seed,
                                              chaos_faults, serve_faults):
        """Faulty rows are picked by their ``(name, value)`` pairs: the
        seeds the chaos and serve tests use fault 1/2/5 of the 6-point
        chaos grid and 1/2/3 of the 4-point serve grid, for any chunking."""
        from itertools import product

        from repro.hw.params import VITCOD_DEFAULT

        for grid, expected in ((GRID, chaos_faults),
                               ({"mac_lines": (16, 32),
                                 "ae_compression": (None, 0.5)},
                                serve_faults)):
            names = sorted(grid)
            rows = list(product(*(grid[n] for n in names)))
            faulty = FaultyEvaluator(
                "analytical", {"seed": seed, "evaluator_error_rate": 0.5}
            )
            whole = faulty.evaluate_batch(workload, VITCOD_DEFAULT, names,
                                          rows)
            hit = [isinstance(r, FaultInjectedError) for r in whole]
            assert sum(hit) == expected
            faulty = FaultyEvaluator(
                "analytical", {"seed": seed, "evaluator_error_rate": 0.5}
            )
            single = [
                isinstance(faulty.evaluate_batch(workload, VITCOD_DEFAULT,
                                                 names, [row])[0],
                           FaultInjectedError)
                for row in reversed(rows)
            ]
            assert single[::-1] == hit

    def test_faulty_shard_batches_the_inner_evaluator(self, tmp_path,
                                                       workload):
        """A fault-injected shard scores through evaluate_batch: one inner
        call with every healthy point of the chunk, then per-point retries
        of the faulted ones, and a store equal to the serial sweep."""
        calls = []

        class Spy(AnalyticalEvaluator):
            def evaluate_batch(self, workload, base_config, names, rows):
                rows = list(rows)
                calls.append(len(rows))
                return super().evaluate_batch(workload, base_config, names,
                                              rows)

        faulty = FaultyEvaluator(Spy(),
                                 {"seed": 7, "evaluator_error_rate": 0.5})
        run = run_shard(workload, GRID, "1/1", tmp_path / "store",
                        evaluator=faulty, workload_spec=SPEC)
        assert run.complete and run.failed == 0 and run.retried == 2
        assert calls[0] == 4 and sum(calls) == 6
        assert list(merge_store(tmp_path / "store").points) == \
            sweep_design_space(workload, GRID)

    def test_injected_error_is_transient(self):
        assert issubclass(FaultInjectedError, TransientError)
        failure = PointFailure(parameters={}, error="x", transient=True)
        assert failure.transient

    def test_spec_rides_the_inner_evaluator(self):
        faulty = FaultyEvaluator("analytical", {"evaluator_error_rate": 0.5})
        spec = evaluator_spec(faulty)
        assert spec["name"] == "analytical"
        assert spec["faults"] == {"evaluator_error_rate": 0.5}
        rebuilt = evaluator_from_spec(spec)
        assert isinstance(rebuilt, FaultyEvaluator)
        assert rebuilt.fault_plan.spec() == {"evaluator_error_rate": 0.5}

    def test_bad_wire_plan_rejected(self):
        with pytest.raises(ValueError, match="bad 'faults' plan"):
            evaluator_from_spec({"name": "analytical", "faults": {"zap": 1}})

    def test_hybrid_nested_faults_rejected(self):
        with pytest.raises(ValueError, match="top-level"):
            evaluator_from_spec({
                "name": "hybrid",
                "coarse": {"name": "analytical", "faults": {"seed": 1}},
                "fine": {"name": "cycle"},
            })


class TestShardRetries:
    def test_transients_retried_to_healthy_records(self, tmp_path, workload):
        """Every seeded transient heals in-process; merge == serial sweep."""
        faulty = FaultyEvaluator(
            AnalyticalEvaluator(),
            {"seed": 5, "evaluator_error_rate": 0.5},
        )
        store = tmp_path / "store"
        run = run_shard(workload, GRID, "1/1", store, evaluator=faulty,
                        workload_spec=SPEC)
        assert run.complete and run.failed == 0
        assert run.retried > 0
        merged = merge_store(store)
        assert list(merged.points) == sweep_design_space(workload, GRID)

    def test_retry_counts_land_in_records_not_payload(self, tmp_path,
                                                      workload):
        faulty = FaultyEvaluator(
            AnalyticalEvaluator(), {"seed": 5, "evaluator_error_rate": 0.5}
        )
        store = tmp_path / "store"
        run_shard(workload, GRID, "1/1", store, evaluator=faulty,
                  workload_spec=SPEC)
        from repro.dist.sharding import ShardSpec
        records = load_jsonl(
            ResultStore(store).shard_path(ShardSpec(1, 1))
        )
        retried = [r for r in records if r.get("r")]
        assert retried, "the seeded plan should have retried something"
        # ``r`` is bookkeeping like ``t``: identical results from a
        # retried and an untouched evaluation must compare equal.
        healthy = encode_record(*decode_record(retried[0]))
        assert record_payload(healthy) == record_payload(retried[0])
        status = store_status(store)
        assert status.retries == sum(r["r"] for r in retried)

    def test_deterministic_failures_persist_once(self, tmp_path, workload):
        """Non-transient evaluator bugs are not retried."""

        class Broken:
            calls = 0

            def __call__(self, workload, config, accel_kwargs):
                type(self).calls += 1
                raise ValueError("deterministic bug")

        store = tmp_path / "store"
        grid = {"mac_lines": (16,)}
        run = run_shard(workload, grid, "1/1", store, evaluator=Broken(),
                        workload_spec=SPEC)
        assert run.failed == 1 and run.retried == 0
        assert Broken.calls == 1

    def test_manifest_merge_strips_faults(self, tmp_path, workload):
        """The merge host re-scores healthily: no faults key leaks out."""
        faulty = FaultyEvaluator(
            AnalyticalEvaluator(), {"seed": 1, "evaluator_error_rate": 0.2}
        )
        store = tmp_path / "store"
        run_shard(workload, GRID, "1/1", store, evaluator=faulty,
                  workload_spec=SPEC)
        manifest = ResultStore(store).read_manifest()
        assert manifest["evaluator"]["name"] == "analytical"
        assert manifest["evaluator"]["faults"] == {
            "seed": 1, "evaluator_error_rate": 0.2,
        }
        merged = merge_store(store)  # rebuilds the evaluator sans faults
        assert list(merged.points) == sweep_design_space(workload, GRID)


class TestTornWriteInjection:
    def test_faulty_shard_rerun_converges(self, tmp_path, workload):
        """Torn write kills the run; a plain re-run completes the store."""
        faulty = FaultyEvaluator(
            AnalyticalEvaluator(), {"seed": 2, "torn_write": True}
        )
        store = tmp_path / "store"
        with pytest.raises(FaultInjectedError):
            run_shard(workload, GRID, "1/1", store, evaluator=faulty,
                      workload_spec=SPEC)
        run = run_shard(workload, GRID, "1/1", store, evaluator=faulty,
                        workload_spec=SPEC)  # marker spent: heals through
        assert run.complete
        merged = merge_store(store)
        assert list(merged.points) == sweep_design_space(workload, GRID)


class TestShardLiveness:
    def test_liveness_follows_ledger_appends(self, tmp_path):
        """dse-fleet reads liveness from the ledgers: no heartbeat files."""
        store = tmp_path / "store"
        fleet = run_fleet(store, 2, [
            "--models", "deit-tiny", "--grid", "mac_lines=16,32,64",
            "--steal",
        ])
        assert fleet.ok and fleet.hang_kills == 0
        assert not (store / "heartbeats").exists()

        layout = ResultStore(store)
        spec = ShardSpec(1, 2)
        ledgers = (layout.shard_path(spec), layout.steal_path(spec))
        shard = _Shard(1, [], ledgers, tmp_path / "shard-1.log")
        shard.launched_at = time.monotonic() - 1000.0
        long_ago = time.time() - 1000.0
        for path in ledgers:
            path.touch()
            os.utime(path, (long_ago, long_ago))
        assert shard.idle_s() > 900  # stale ledgers, launched long ago
        for path in ledgers:
            with JsonlAppender(path) as out:
                out.append({"i": 0})
            assert shard.idle_s() < 60  # one append is progress
            os.utime(path, (long_ago, long_ago))
        shard.launched_at = time.monotonic()
        assert shard.idle_s() < 60  # a fresh launch is progress too


class TestForkedShards:
    """dse-fleet forks each shard from the supervisor's process, which
    has already imported ``repro``; a child runs ``dse-shard`` and exits
    with the interpreter's status, never returning into the supervisor."""

    def test_no_interpreter_is_started(self, tmp_path, monkeypatch, workload):
        """No subprocess and no PYTHONPATH: the shards are forked."""
        monkeypatch.delenv("PYTHONPATH", raising=False)

        def no_subprocess(*args, **kwargs):
            raise AssertionError("a fleet shard started a subprocess")

        monkeypatch.setattr(subprocess, "Popen", no_subprocess)
        store = tmp_path / "store"
        fleet = run_fleet(store, 2, [
            "--models", "deit-tiny", "--grid", "mac_lines=16,32,64",
        ])
        assert fleet.ok and fleet.restarts == 0
        assert list(merge_store(store).points) == sweep_design_space(
            workload, {"mac_lines": (16, 32, 64)}
        )

    def test_failing_child_never_acts_as_supervisor(self, tmp_path,
                                                    monkeypatch):
        """A forked child inherits this process's patch of ``run_shard``
        (the CLI imports it at call time): shard 1/2 raises at every
        launch and is abandoned, shard 2/2 completes, and each child's
        output lands in its log."""
        real_run_shard = repro.dist.run_shard

        def run_shard(workload, grid, shard, *args, **kwargs):
            if shard == "1/2":
                raise RuntimeError("shard 1/2 refuses to run")
            return real_run_shard(workload, grid, shard, *args, **kwargs)

        monkeypatch.setattr(repro.dist, "run_shard", run_shard)
        store = tmp_path / "store"
        fleet = run_fleet(store, 2, [
            "--models", "deit-tiny", "--grid", "mac_lines=16,32,64",
        ], max_restarts=2, poll_s=0.02, backoff_base_s=0.01)
        assert fleet.abandoned == (1,)
        assert fleet.restarts == 2  # all shard 1's: shard 2 exited 0
        assert fleet.hang_kills == 0
        assert not fleet.complete
        first, second = store_status(store).shards
        assert first.done == 0
        assert second.done == second.total > 0

        logs = store / "logs"
        lines = (logs / "shard-2.log").read_text().splitlines()
        assert re.fullmatch(r"shard 2/2: \d+ evaluated, .*", lines[-2])
        assert lines[-1].startswith("store: ")
        failed = (logs / "shard-1.log").read_text()
        assert failed.count("Traceback (most recent call last)") == 3
        assert failed.count("RuntimeError: shard 1/2 refuses to run") == 3

    def test_system_exit_message_and_status(self, tmp_path, caplog):
        """An argument check's ``SystemExit`` message goes to the log and
        the child exits 1, as ``python -m repro dse-shard`` would."""
        store = tmp_path / "store"
        with caplog.at_level(logging.WARNING, logger="repro.dist.fleet"):
            fleet = run_fleet(store, 1, [
                "--models", "deit-tiny", "--grid", "mac_lines=16",
                "--handicap", "-1",
            ], max_restarts=0)
        assert fleet.abandoned == (1,) and fleet.restarts == 0
        assert "(exited with code 1)" in caplog.text
        log = (store / "logs" / "shard-1.log").read_text()
        assert log == "--handicap must be non-negative seconds, got -1.0\n"


class TestCliFaultPlans:
    def test_dse_rejects_hybrid_with_faults(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="sharded path"):
            main(["dse", "--evaluator", "hybrid", "--faults",
                  '{"seed": 1}'])

    def test_bad_plan_rejected_before_work(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="--faults"):
            main(["dse", "--faults", '{"zap": 1}'])
        with pytest.raises(SystemExit, match="--faults"):
            main(["dse", "--faults", "not json {"])

    def test_plan_file_accepted(self, tmp_path, capsys):
        from repro.cli import main
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"seed": 9}))
        assert main(["dse", "--models", "deit-tiny", "--grid",
                     "mac_lines=16", "--faults", str(plan)]) == 0
        assert "1 points" in capsys.readouterr().out
