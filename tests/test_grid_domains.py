"""Every swept knob's domain, checked once where a grid enters.

The contract under test: ``sweep_design_space``, ``run_shard``, the CLI's
``dse --grid`` and ``POST /jobs`` run the same grid check, so they accept
and reject exactly the same values, and a rejected grid leaves no state
behind — no store directory, no manifest, no shard process, no job
directory.  Values are drawn at and across each knob's domain edges:

* MAC lines: a whole number of at least 2;
* bandwidth: finite and positive;
* activation buffer: a whole, positive number of bytes;
* AE ratio: in (0, 1], or ``None`` (AE off);
* Q-forwarding hit rate: in [0, 1).

A grid sweeping a knob its evaluator's walk does not model (the cycle
walk and ``q_forwarding_hit_rate``), and a bad ``dse-shard`` option, are
refused the same way: one line or HTTP 400, no state.
"""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.dist import merge_store, model_workload_spec, run_shard
from repro.faults import FaultyEvaluator
from repro.harness.dse import sweep_design_space
from repro.hw.params import VITCOD_DEFAULT
from repro.perf import cached_model_workload
from repro.serve import JobManager, ServeClient, ServeError, serving
from repro.serve.jobs import ServeRequestError
from repro.sim import UnsupportedParameterError
from repro.sim.evaluator import check_swept_knobs, dse_parameter_names

SPEC = model_workload_spec("deit-tiny", sparsity=0.9)

#: The issue's four bad grids, one out-of-domain value each.
BAD_GRIDS = [
    ({"mac_lines": [16, 16.5]}, "mac_lines", "16.5"),
    ({"act_buffer_kb": [0.001, 320]}, "act_buffer_kb", "0.001"),
    ({"bandwidth_gbps": [math.inf, 76.8]}, "bandwidth_gbps", "inf"),
    ({"mac_lines": [math.inf]}, "mac_lines", "inf"),
]


@pytest.fixture(scope="module")
def workload():
    return cached_model_workload("deit-tiny", sparsity=0.9)


def edge_values():
    """``(knob, value)`` at and across each knob's domain edges."""
    return st.one_of(
        st.tuples(st.just("mac_lines"), st.one_of(
            st.sampled_from([1, 2, 2.0]),
            st.integers(2, 130).map(lambda k: k + 0.5),
            st.integers(2, 130),
        )),
        st.tuples(st.just("bandwidth_gbps"), st.one_of(
            st.floats(0.1, 500).map(lambda x: -x),
            st.sampled_from([0, math.inf, math.nan, 1e-6, 76.8]),
        )),
        st.tuples(st.just("act_buffer_kb"),
                  st.sampled_from([0, 1 / 1024, 1 / 2048, 0.5, 320])),
        st.tuples(st.just("ae_compression"),
                  st.sampled_from([0, 1, None, 1.5, 0.5])),
        st.tuples(st.just("q_forwarding_hit_rate"),
                  st.sampled_from([0, 1, -0.1, 0.3])),
    )


def in_domain(name, value):
    """The knobs' domains, restated independently of ``src/``."""
    if value is None:
        return name == "ae_compression"
    if name == "mac_lines":
        return math.isfinite(value) and value == int(value) and value >= 2
    if name == "bandwidth_gbps":
        return math.isfinite(value) and value > 0
    if name == "act_buffer_kb":
        return value > 0 and (value * 1024) == int(value * 1024)
    if name == "ae_compression":
        return 0 < value <= 1
    return 0 <= value < 1


def _cli_token(value):
    return "none" if value is None else repr(value)


class TestEveryEntryPointAgrees:
    @given(knob=edge_values())
    @settings(max_examples=40, deadline=None)
    def test_same_values_accepted_and_rejected(self, workload, knob):
        name, value = knob
        grid = {name: [value]}
        expected = in_domain(name, value)
        outcomes = {}
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            try:
                points = sweep_design_space(workload, grid)
                outcomes["sweep"] = True
            except ValueError as exc:
                assert repr(value) in str(exc) and name in str(exc)
                outcomes["sweep"] = False
            try:
                run_shard(workload, grid, "1/1", tmp / "store",
                          workload_spec=SPEC)
                outcomes["run_shard"] = True
            except ValueError:
                outcomes["run_shard"] = False
                assert not (tmp / "store").exists()
            out = tmp / "dse.json"
            try:
                main(["dse", "--models", "deit-tiny", "--grid",
                      f"{name}={_cli_token(value)}", "--json", str(out)])
                outcomes["cli"] = True
            except SystemExit as exc:
                assert name in str(exc) and "\n" not in str(exc)
                outcomes["cli"] = False
                assert not out.exists()
            manager = JobManager(tmp / "serve", workers=0)
            try:
                manager.submit({"grid": grid, "model": "deit-tiny"})
                outcomes["post_jobs"] = True
            except ServeRequestError:
                outcomes["post_jobs"] = False
                assert not any((tmp / "serve" / "jobs").iterdir())
            assert outcomes == dict.fromkeys(outcomes, expected), outcomes
            if expected and name == "mac_lines":
                lines = int(value) * VITCOD_DEFAULT.macs_per_line
                assert [p.area_proxy for p in points] == [lines]
                merged = merge_store(tmp / "store")
                assert [p.area_proxy for p in merged.points] == [lines]
                assert json.loads(out.read_text())["points"][0] \
                    ["parameters"] == {name: value}


class TestBadGridLeavesNoState:
    @pytest.mark.parametrize("grid, name, value", BAD_GRIDS)
    def test_dse_exits_with_one_line(self, tmp_path, grid, name, value):
        spec = f"{name}=" + ",".join(_cli_token(v) for v in grid[name])
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            main(["dse", "--models", "deit-tiny", "--grid", spec,
                  "--json", str(out)])
        message = str(exc.value.code)
        assert f"{name!r} value {value}" in message and "\n" not in message
        assert not out.exists()

    def test_dse_shard_leaves_no_store(self, tmp_path):
        store = tmp_path / "store"
        with pytest.raises(SystemExit, match="unknown grid parameter"):
            main(["dse-shard", "--shard", "1/2", "--out", str(store),
                  "--models", "deit-tiny", "--grid", "bogus=1,2"])
        assert not store.exists()

    def test_dse_fleet_launches_no_shard(self, tmp_path, monkeypatch):
        import repro.dist

        def launched(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a shard was launched for a bad grid")

        monkeypatch.setattr(repro.dist, "run_fleet", launched)
        store = tmp_path / "s"
        with pytest.raises(SystemExit, match="unknown grid parameter"):
            main(["dse-fleet", "--out", str(store), "--num-shards", "2",
                  "--grid", "bogus=1,2"])
        assert not store.exists()

    def test_run_shard_raises_before_the_manifest(self, tmp_path, workload):
        store = tmp_path / "store"
        with pytest.raises(ValueError, match="unknown grid parameter"):
            run_shard(workload, {"bogus": [1, 2]}, "1/2", store,
                      workload_spec=SPEC)
        assert not store.exists()

    @pytest.mark.parametrize("grid, name, value", BAD_GRIDS)
    def test_post_jobs_answers_400(self, tmp_path, grid, name, value):
        with serving(tmp_path / "data", workers=0) as server:
            with pytest.raises(ServeError) as exc:
                ServeClient(server.url).submit(
                    {"grid": grid, "model": "deit-tiny"}
                )
        assert exc.value.status == 400
        assert f"{name!r} value {value}" in str(exc.value)
        assert not any((tmp_path / "data" / "jobs").iterdir())


class TestRecordedGridsAreChecked:
    def test_store_with_bad_grid_rejected_on_load(self, tmp_path, workload):
        store = tmp_path / "store"
        run_shard(workload, {"mac_lines": [16, 32]}, "1/1", store,
                  workload_spec=SPEC)
        manifest = store / "MANIFEST.json"
        data = json.loads(manifest.read_text())
        data["grid"]["mac_lines"] = [16, 16.5]
        manifest.write_text(json.dumps(data))
        with pytest.raises(ValueError,
                           match=r"'mac_lines' value 16.5: 16.5 MAC lines"):
            merge_store(store)

    def test_job_with_bad_grid_fails_on_resume(self, tmp_path):
        manager = JobManager(tmp_path, workers=0)
        info = manager.submit({"grid": {"mac_lines": [16, 32]},
                               "model": "deit-tiny"})
        manifest = tmp_path / "jobs" / info["id"] / "store" / "MANIFEST.json"
        data = json.loads(manifest.read_text())
        data["grid"]["mac_lines"] = [16, 16.5]
        manifest.write_text(json.dumps(data))
        restarted = JobManager(tmp_path, workers=0)
        assert restarted.resume() == []
        status = restarted.status(info["id"])
        assert status["state"] == "failed"
        assert "'mac_lines' value 16.5" in status["error"]


# ----------------------------------------------------------------------
# A knob the evaluator does not model, refused where the grid meets it
# ----------------------------------------------------------------------
UNMODELLED = ["--evaluator", "cycle", "--grid", "q_forwarding_hit_rate=0,0.3"]

#: The swept knobs each built-in's walk does not model.
REFUSED = {"analytical": set(), "cycle": {"q_forwarding_hit_rate"}}


class TestUnmodelledKnobRefused:
    @pytest.mark.parametrize("evaluator", sorted(REFUSED))
    def test_each_walk_refuses_exactly_what_it_does_not_model(
            self, evaluator):
        faulty = FaultyEvaluator(evaluator, {"seed": 1})
        for name in dse_parameter_names():
            for scorer in (evaluator, faulty):
                if name in REFUSED[evaluator]:
                    with pytest.raises(UnsupportedParameterError,
                                       match=f"'{evaluator}'.*{name}"):
                        check_swept_knobs(scorer, ["mac_lines", name])
                else:
                    check_swept_knobs(scorer, ["mac_lines", name])

    def test_reference_loop_refuses_what_the_cycle_walk_does(
            self, tmp_path, workload, monkeypatch):
        """The scalar oracle stays a per-point callable, and names the
        cycle walk's knob set: an unmodelled knob is refused before any
        point is scored or any store exists."""
        from cycle_reference import (
            ReferenceCycleSimEvaluator,
            ReferenceCycleSimulator,
        )

        def scored(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a point was scored for a refused grid")

        monkeypatch.setattr(ReferenceCycleSimulator, "simulate_attention",
                            scored)
        reference = ReferenceCycleSimEvaluator()
        assert not hasattr(reference, "evaluate_batch")
        for name in dse_parameter_names():
            if name in REFUSED["cycle"]:
                with pytest.raises(UnsupportedParameterError,
                                   match=f"'cycle-reference'.*{name}"):
                    check_swept_knobs(reference, ["mac_lines", name])
            else:
                check_swept_knobs(reference, ["mac_lines", name])
        grid = {"q_forwarding_hit_rate": [0, 0.3]}
        with pytest.raises(UnsupportedParameterError,
                           match="q_forwarding_hit_rate"):
            sweep_design_space(workload, grid, evaluator=reference)
        store = tmp_path / "store"
        with pytest.raises(UnsupportedParameterError,
                           match="q_forwarding_hit_rate"):
            run_shard(workload, grid, "1/2", store, evaluator=reference,
                      workload_spec=SPEC)
        assert not store.exists()

    def test_dse_exits_before_the_build(self, tmp_path, monkeypatch):
        import repro.perf

        def build(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a workload was built for a refused grid")

        monkeypatch.setattr(repro.perf, "cached_model_workload", build)
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            main(["dse", "--models", "deit-tiny", *UNMODELLED,
                  "--json", str(out)])
        message = str(exc.value.code)
        assert "q_forwarding_hit_rate" in message and "\n" not in message
        assert not out.exists()

    def test_dse_shard_leaves_no_store(self, tmp_path):
        store = tmp_path / "store"
        with pytest.raises(SystemExit, match="q_forwarding_hit_rate"):
            main(["dse-shard", "--shard", "1/2", "--out", str(store),
                  "--models", "deit-tiny", *UNMODELLED])
        assert not store.exists()

    def test_dse_fleet_launches_no_shard(self, tmp_path, monkeypatch):
        import repro.dist

        def launched(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a shard was launched for a refused grid")

        monkeypatch.setattr(repro.dist, "run_fleet", launched)
        store = tmp_path / "s"
        with pytest.raises(SystemExit, match="q_forwarding_hit_rate"):
            main(["dse-fleet", "--out", str(store), "--num-shards", "2",
                  *UNMODELLED])
        assert not store.exists()

    def test_run_shard_raises_before_the_manifest(self, tmp_path, workload):
        store = tmp_path / "store"
        with pytest.raises(UnsupportedParameterError,
                           match="q_forwarding_hit_rate"):
            run_shard(workload, {"q_forwarding_hit_rate": [0, 0.3]}, "1/2",
                      store, evaluator="cycle", workload_spec=SPEC)
        assert not store.exists()

    def test_post_jobs_answers_400(self, tmp_path):
        with serving(tmp_path / "data", workers=0) as server:
            with pytest.raises(ServeError) as exc:
                ServeClient(server.url).submit({
                    "grid": {"q_forwarding_hit_rate": [0, 0.3]},
                    "evaluator": "cycle", "model": "deit-tiny",
                })
        assert exc.value.status == 400
        assert "q_forwarding_hit_rate" in str(exc.value)
        assert not any((tmp_path / "data" / "jobs").iterdir())


# ----------------------------------------------------------------------
# dse-shard options, checked once by dse-shard and dse-fleet
# ----------------------------------------------------------------------
#: Bad ``--shard`` spellings, and the options dse-fleet hands to every
#: shard it forks (``--handicap`` and ``--steal-chunk`` under dse-shard
#: alone are ``test_dist``'s ``test_bad_steal_flags_rejected``).
BAD_SHARD_SPECS = [
    (["--shard", "3/2"], "--shard: shard index must be in 1..2, got 3"),
    (["--shard", "0/2"], "--shard: shard index must be in 1..2, got 0"),
    (["--shard", "abc"], "--shard: bad shard spec 'abc'"),
    (["--shard", "1/2", "--max-point-retries", "-1"],
     "--max-point-retries must be >= 0"),
]
FLEET_OPTIONS = [
    (["--max-point-retries", "-1"], "--max-point-retries must be >= 0"),
    (["--handicap", "-1"], "--handicap must be non-negative"),
    (["--steal", "--steal-chunk", "0"], "--steal-chunk must be a positive"),
]


class TestShardOptionsRefused:
    @pytest.mark.parametrize("options, message", BAD_SHARD_SPECS,
                             ids=[" ".join(o) for o, _ in BAD_SHARD_SPECS])
    def test_dse_shard_exits_with_one_line(self, tmp_path, options, message):
        store = tmp_path / "store"
        with pytest.raises(SystemExit) as exc:
            main(["dse-shard", "--out", str(store), "--models", "deit-tiny",
                  "--grid", "mac_lines=16,32", *options])
        text = str(exc.value.code)
        assert text.startswith(message) and "\n" not in text
        assert not store.exists()

    @pytest.mark.parametrize("options, message", FLEET_OPTIONS,
                             ids=[" ".join(o) for o, _ in FLEET_OPTIONS])
    def test_dse_fleet_launches_no_shard(self, tmp_path, monkeypatch,
                                         options, message):
        import repro.dist

        def launched(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a shard was launched for a bad option")

        monkeypatch.setattr(repro.dist, "run_fleet", launched)
        store = tmp_path / "s"
        with pytest.raises(SystemExit) as exc:
            main(["dse-fleet", "--out", str(store), "--num-shards", "2",
                  "--grid", "mac_lines=16,32", *options])
        text = str(exc.value.code)
        assert text.startswith(message) and "\n" not in text
        assert not store.exists()
