"""``dse-merge`` and ``dse`` render in memory that follows the points.

The merge folds each ledger line into its grid slot as it reads it
(:func:`repro.dist.merge_store`), and the CLI streams its render: the
table line by line (:func:`repro.harness.iter_table`) and ``--json``
chunk by chunk (:func:`repro.harness.serialization.iter_json`).  The
contract under test: the bytes are exactly what ``format_table`` and
``to_json(dse_result_payload(...))`` return whole, every refusal of the
merge keeps its exception class and message, and the traced peak of a
``dse-merge --json`` stays within a fixed budget per merged point.
"""

import contextlib
import json
import os
import sys
import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest

from repro.cli import main
from repro.dist import (
    IncompleteStoreError,
    JsonlAppender,
    ResultStore,
    ShardSpec,
    StoreCorruptError,
    StoreMismatchError,
    build_manifest,
    encode_record,
    merge_store,
    model_workload_spec,
    run_fleet,
    store_status,
)
from repro.dist.runner import _recorded_indices
from repro.harness import format_table, iter_table
from repro.harness.dse import DesignPoint, PointFailure
from repro.harness.serialization import dse_result_payload, iter_json, to_json
from repro.hw.params import VITCOD_DEFAULT
from repro.perf import cached_model_workload
from repro.serve import JobManager
from repro.sim.evaluator import EvalMetrics, evaluator_from_spec

MODEL, SPARSITY = "deit-tiny", 0.9
#: A small study: shard 1/2 owns 0, 2, 4 and shard 2/2 owns 1, 3, 5.
GRID = {"mac_lines": [16, 32, 64], "ae_compression": [None, 0.5]}
HEADERS_TAIL = ["seconds", "energy_J", "EDP", "pareto"]


def _combos(grid):
    names = sorted(grid)
    return [tuple(zip(names, values))
            for values in product(*(grid[n] for n in names))]


def _point(index, parameters):
    """A made-up scored point; the objectives trade off along the grid."""
    return DesignPoint(
        parameters=parameters,
        seconds=1e-3 * (1 + (index * 7919) % 613 / 613),
        energy_joules=1e-4 * (1 + (index * 104729) % 419 / 419),
        area_proxy=float(index),
    )


def _make_store(root, grid=GRID, score=_point):
    """A complete 2-shard cycle store whose records ``score`` makes."""
    manifest = build_manifest(
        grid, 2, evaluator_from_spec("cycle"), VITCOD_DEFAULT,
        model_workload_spec(MODEL, sparsity=SPARSITY),
    )
    store, _ = ResultStore.create_or_attach(root, manifest)
    combos = _combos(grid)
    for k in (1, 2):
        with JsonlAppender(store.shard_path(ShardSpec(k, 2))) as out:
            for index in ShardSpec(k, 2).indices(len(combos)):
                out.append(encode_record(index, score(index, combos[index]),
                                         timestamp=1.0))
    return store


def _lines(path):
    return path.read_text().splitlines()


def _write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def _expected_stdout(payload, json_path, head=()):
    """The render as the whole-text forms give it."""
    names = sorted(payload["grid"])
    rows = [[row["parameters"][n] for n in names]
            + [row["seconds"], row["energy_joules"], row["edp"],
               "*" if row["pareto"] else ""]
            for row in payload["points"]]
    frontier = sum(row["pareto"] for row in payload["points"])
    return "".join(line + "\n" for line in head) + (
        format_table(names + HEADERS_TAIL, rows, float_fmt="{:.3e}")
        + f"\n\n{len(rows)} points ({payload['evaluator']} evaluator), "
        f"{frontier} on the Pareto frontier\n\nwrote {json_path}\n"
    )


def _merged_payload(store):
    merged = merge_store(store)
    grid = {k: tuple(v) for k, v in merged.manifest["grid"].items()}
    return dse_result_payload(MODEL, SPARSITY, "cycle", grid,
                              list(merged.points))


class TestStreamedRender:
    def test_iter_table_joins_to_format_table(self):
        rows = [[16, None, 1.5e-3, "*"], [128, 0.5, float("inf"), ""]]
        headers = ["mac_lines", "ae", "seconds", "pareto"]
        assert "\n".join(iter_table(headers, rows, "{:.3e}")) == \
            format_table(headers, rows, "{:.3e}") == \
            format_table(headers, iter(rows), "{:.3e}")  # a one-shot iterable
        assert list(iter_table(["a", "bb"], [])) == ["a  bb", "-  --"]

    def test_iter_json_joins_to_to_json(self):
        payload = {"b": [np.float32(0.1), np.int64(3), (None, 1.5)],
                   "a": {"x": np.arange(3), "y": float("inf")}}
        assert "".join(iter_json(payload)) == to_json(payload)
        with pytest.raises(TypeError):
            to_json({"flag": np.bool_(True)})

    def test_dse_merge_bytes(self, tmp_path, capsys):
        store = _make_store(tmp_path / "store")
        out = tmp_path / "merged.json"
        main(["dse-merge", str(store.root), "--json", str(out)])
        payload = _merged_payload(store.root)
        assert out.read_text() == to_json(payload)
        assert any(p["parameters"]["ae_compression"] is None
                   for p in payload["points"])  # None parameters render
        head = ["merged 2 shards (6 grid points, 0 dropped)"]
        assert capsys.readouterr().out == _expected_stdout(payload, out, head)

    def test_every_record_a_failure_renders_empty(self, tmp_path, capsys):
        def fail(index, parameters):
            return PointFailure(parameters=parameters, error="boom")

        store = _make_store(tmp_path / "store", score=fail)
        out = tmp_path / "merged.json"
        with pytest.warns(RuntimeWarning, match="dropped: evaluator raised"):
            main(["dse-merge", str(store.root), "--json", str(out)])
        payload = dse_result_payload(
            MODEL, SPARSITY, "cycle", {k: tuple(v) for k, v in GRID.items()},
            [],
        )
        assert out.read_text() == to_json(payload)
        assert list(payload["points"]) == []
        head = ["merged 2 shards (6 grid points, 6 dropped)"]
        text = capsys.readouterr().out
        assert text == _expected_stdout(payload, out, head)
        assert "0 points (cycle evaluator), 0 on the Pareto frontier" in text

    def test_dse_numpy_objectives_and_infinite_energy(self, tmp_path,
                                                       monkeypatch, capsys):
        """A custom per-point evaluator's numpy objectives and a +inf
        energy on the frontier render as ``to_json`` renders them."""
        import repro.harness.dse as dse

        def score(workload, config, accel_kwargs):
            lines = config.num_mac_lines
            energy = np.inf if lines == 64 else 1e-4 * lines
            return EvalMetrics(seconds=np.float64(1.0 / lines),
                               energy_joules=np.float32(energy))

        sweep = dse.sweep_design_space
        monkeypatch.setattr(
            dse, "sweep_design_space",
            lambda workload, grid, **kw: sweep(workload, grid,
                                               **{**kw, "evaluator": score}),
        )
        out = tmp_path / "dse.json"
        main(["dse", "--models", MODEL, "--grid", "mac_lines=16,32,64",
              "--grid", "ae_compression=none,0.5", "--json", str(out)])
        grid = {"ae_compression": (None, 0.5), "mac_lines": (16, 32, 64)}
        workload = cached_model_workload(MODEL, sparsity=SPARSITY)
        points = sweep(workload, grid, evaluator=score)
        assert isinstance(points[0].energy_joules, np.float32)
        payload = dse_result_payload(MODEL, SPARSITY, "analytical", grid,
                                     points)
        fastest = [p for p in payload["points"] if p["pareto"]]
        assert any(p["energy_joules"] == np.inf for p in fastest)
        assert out.read_text() == to_json(payload)
        assert '"energy_joules": Infinity' in out.read_text()
        assert capsys.readouterr().out == _expected_stdout(payload, out)


class TestFoldRefusals:
    """Each refusal keeps its class and message; counts stay exact."""

    def _store(self, tmp_path):
        return _make_store(tmp_path / "store")

    def test_failure_and_stolen_duplicate(self, tmp_path):
        def score(index, parameters):
            if index == 3:
                return PointFailure(parameters=parameters, error="boom")
            return _point(index, parameters)

        store = _make_store(tmp_path / "store", score=score)
        first = json.loads(_lines(store.shard_path(ShardSpec(2, 2)))[0])
        _write(store.steal_path(ShardSpec(1, 2)), [{**first, "t": 7.0}])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            merged = merge_store(store.root)
        assert [str(w.message) for w in caught] == [
            "DSE point 3 {'ae_compression': 0.5, 'mac_lines': 16} dropped: "
            "evaluator raised boom"
        ]
        assert merged.dropped == 1 and merged.duplicates == 1
        assert len(merged.points) == 5

    def test_first_record_wins_within_a_file(self, tmp_path):
        """A repeat within one file is ignored: no conflict, no count."""
        store = self._store(tmp_path)
        path = store.shard_path(ShardSpec(1, 2))
        first = json.loads(_lines(path)[0])
        with open(path, "a") as fh:
            fh.write(json.dumps({**first, "s": 99.0}) + "\n")
        steal = store.steal_path(ShardSpec(2, 2))
        _write(steal, [first, {**first, "s": 98.0}])
        merged = merge_store(store.root)
        assert merged.duplicates == 1
        assert merged.points[0].seconds == first["s"]

    @pytest.mark.parametrize("case", [
        "foreign-partition", "not-owned", "owns-outright", "out-of-range",
        "conflicting", "missing", "undecodable", "undecodable-stolen",
        "no-index", "malformed-line",
    ])
    def test_refusal(self, tmp_path, case):
        store = self._store(tmp_path)
        shard1 = store.shard_path(ShardSpec(1, 2))
        shard2 = store.shard_path(ShardSpec(2, 2))
        steal2 = store.steal_path(ShardSpec(2, 2))
        own = [json.loads(line) for line in _lines(shard1)]  # 0, 2, 4
        if case == "foreign-partition":
            (store.root / "steal-0001-of-0003.jsonl").write_text("")
            error, message = StoreMismatchError, (
                "steal-0001-of-0003.jsonl belongs to a /3 partition but the "
                "store was created for /2")
        elif case == "not-owned":
            _write(shard2, [json.loads(_lines(shard2)[0]), own[1]])
            error, message = StoreCorruptError, (
                f"{shard2.name} holds grid index 2, which shard 2/2 does not "
                "own")
        elif case == "owns-outright":
            _write(steal2, [json.loads(_lines(shard2)[0])])
            error, message = StoreCorruptError, (
                f"{steal2.name} holds grid index 1, which shard 2/2 owns "
                "outright — steal files may only cover other shards' indices")
        elif case == "out-of-range":
            _write(steal2, [{**own[0], "i": 6}])
            error, message = StoreCorruptError, (
                f"{steal2.name} holds grid index 6, outside the 6-point grid")
        elif case == "conflicting":
            _write(steal2, [{**own[2], "e": own[2]["e"] * 2}])
            error, message = StoreCorruptError, (
                "grid index 4 appears in multiple files with conflicting "
                "results — the evaluator is not deterministic, or the store "
                "mixes studies")
        elif case == "missing":
            _write(shard1, own[:2])
            error, message = IncompleteStoreError, (
                "store holds 5 of 6 grid points (1 missing); run the "
                "remaining shards (see `python -m repro dse-status`)")
        elif case == "undecodable":
            bad = {key: v for key, v in own[1].items() if key != "s"}
            _write(shard1, [own[0], bad, own[2]])
            error, message = StoreCorruptError, (
                f"malformed completion record {bad!r}: 's'")
        elif case == "undecodable-stolen":
            bad = {key: v for key, v in own[1].items() if key != "p"}
            _write(shard1, [own[0], own[2]])
            _write(steal2, [bad])  # the only copy: decoded as read, "t" kept
            error, message = StoreCorruptError, (
                f"malformed completion record {bad!r}: 'p'")
        elif case == "no-index":
            _write(shard1, [own[0], [1, 2], own[2]])
            error, message = StoreCorruptError, (
                f"{shard1}: record without a grid index: [1, 2]")
        else:
            lines = _lines(shard1)
            shard1.write_text("\n".join([lines[0], "}{", lines[2]]) + "\n")
            error, message = StoreCorruptError, (
                f"{shard1}: malformed record at line 2 (not the final line, "
                "so not a truncated append)")
        with pytest.raises(error) as exc:
            merge_store(store.root)
        assert type(exc.value) is error and str(exc.value) == message

    def test_undecodable_record_waits_for_the_missing_check(self, tmp_path):
        """Decode errors surface in grid order, after the missing check."""
        store = self._store(tmp_path)
        shard1 = store.shard_path(ShardSpec(1, 2))
        own = [json.loads(line) for line in _lines(shard1)]
        _write(shard1, [{key: v for key, v in own[0].items() if key != "s"},
                        own[1]])
        with pytest.raises(IncompleteStoreError):
            merge_store(store.root)


class TestOneParetoRun:
    """A merged study runs the Pareto rule once, on the CLI and served."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        import repro.harness.dse as dse

        original, calls = dse.pareto_frontier, []

        def counted(points, *args, **kwargs):
            calls.append(len(points))
            return original(points, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name.startswith("repro")
                    and getattr(module, "pareto_frontier", None) is original):
                monkeypatch.setattr(module, "pareto_frontier", counted)
        return calls

    def test_dse_merge(self, tmp_path, calls, capsys):
        store = _make_store(tmp_path / "store")
        main(["dse-merge", str(store.root), "--json",
              str(tmp_path / "m.json")])
        assert calls == [6]

    def test_served_merge(self, tmp_path, calls):
        manager = JobManager(tmp_path, workers=0)
        info = manager.submit({"grid": GRID, "evaluator": "cycle",
                               "model": MODEL, "n_shards": 2})
        while manager.run_next():
            pass
        assert manager.status(info["id"])["state"] == "done"
        assert calls == [6]


class TestStreamedIndices:
    def test_completion_check_streams(self, tmp_path, monkeypatch):
        store = _make_store(tmp_path / "store")
        _write(store.steal_path(ShardSpec(1, 2)),
               [json.loads(_lines(store.shard_path(ShardSpec(2, 2)))[0])])

        def loaded(*args):  # pragma: no cover - must not run
            raise AssertionError("records were indexed into a dict")

        monkeypatch.setattr(ResultStore, "load_records", loaded)
        assert _recorded_indices(store) == set(range(6))
        assert store_status(store.root).complete
        _write(store.shard_path(ShardSpec(1, 2)), [])
        assert not store_status(store.root).complete

    def test_an_index_outside_the_grid_completes_nothing(self, tmp_path):
        """Shard 1/2's steal file holds index 6, outside the 6-point
        grid, while index 0 has no record: the store is incomplete to
        ``dse-status`` and to ``dse-fleet`` alike (six recorded indices
        are not six grid points)."""
        store = _make_store(tmp_path / "store")
        own = store.shard_path(ShardSpec(1, 2))
        _write(own, [json.loads(line) for line in _lines(own)[1:]])
        stray = json.loads(_lines(store.shard_path(ShardSpec(2, 2)))[0])
        _write(store.steal_path(ShardSpec(1, 2)), [{**stray, "i": 6}])
        assert len(_recorded_indices(store)) == 6
        assert not store_status(store.root).complete
        fleet = run_fleet(store.root, 2, lambda spec: None)  # scores nothing
        assert fleet.abandoned == () and not fleet.complete


def test_merge_peak_follows_the_points(tmp_path):
    """The traced peak of ``dse-merge --json`` on a 4096-point store
    stays within 320 bytes per point: the columns (24 bytes per slot)
    and the render's one point at a time, not an object per point (the
    dict fold peaked at ~1040 bytes per point)."""
    grid = {
        "mac_lines": list(range(16, 144, 8)),
        "bandwidth_gbps": [24.0 + 9.5 * k for k in range(16)],
        "act_buffer_kb": [32, 48, 64, 96, 128, 192, 256, 384],
        "ae_compression": [None, 0.5],
    }
    store = _make_store(tmp_path / "store", grid=grid)
    out = tmp_path / "merged.json"
    argv = ["dse-merge", str(store.root), "--json", str(out)]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        main(argv)  # warm: lazy imports and caches are not the render's
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            main(argv)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert len(merge_store(store.root).points) == 4096
    assert peak <= 320 * 4096, peak
