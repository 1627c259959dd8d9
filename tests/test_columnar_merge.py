"""A merged study is three float columns: the fold equals the dict fold.

:func:`repro.dist.merge_store` keeps per grid slot a state byte and the
``seconds``/``energy_joules``/``area_proxy`` floats, checks each record's
``p`` against its grid index, and rebuilds each point when it is read
(:class:`repro.harness.dse.GridPoints`).  ``merge_oracle`` keeps the fold
it replaced, which held a ``DesignPoint`` per record.  On generated
stores (failures, steal-file duplicates, repeats within a file, torn
tails, missing and undecodable records) both must give the same points,
frontier, ``dropped``, ``duplicates`` and drop warnings, or refuse the
store with the same exception class and message.  A record whose ``p``
is not its grid index's is the one store they disagree on: the dict fold
renders it, the columns refuse it.
"""

import json
import tempfile
import warnings
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from merge_oracle import decode_record, dict_merge_store
from repro.dist import (
    IncompleteStoreError,
    ResultStore,
    ShardSpec,
    StoreCorruptError,
    build_manifest,
    merge_store,
    model_workload_spec,
    run_shard,
)
from repro.dist.merge import scored_so_far
from repro.harness.dse import GridPoints, PointFailure, pareto_frontier
from repro.harness.serialization import LazyArray, to_json
from repro.hw.params import VITCOD_DEFAULT
from repro.perf import cached_model_workload
from repro.serve import JobManager
from repro.sim.evaluator import evaluator_from_spec

#: Values each generated grid draws its axes from.
POOLS = {
    "act_buffer_kb": [64, 128, 320],
    "ae_compression": [None, 0.5, 0.8],
    "bandwidth_gbps": [19.2, 38.4, 76.8],
    "mac_lines": [16, 32, 64, 128],
}
#: Few distinct objectives, so the frontier has ties.
SECONDS = [1e-3, 2e-3, 3.5e-3]
ENERGY = [1e-4, 2.5e-4, 5e-4]
AREA = [128, 256.0]
ERRORS = ["RuntimeError: boom", "ValueError: out of range"]


def _manifest(grid, num_shards, weights=None):
    return build_manifest(
        grid, num_shards, evaluator_from_spec("cycle"), VITCOD_DEFAULT,
        model_workload_spec("deit-tiny", sparsity=0.9), weights=weights,
    )


def _write_store(root, manifest, files):
    """A store directory holding ``manifest`` and ``files`` (name ->
    text), written plainly: the merge reads, it never syncs."""
    root.mkdir(parents=True)
    (root / "MANIFEST.json").write_text(json.dumps(manifest))
    for name, text in files.items():
        (root / name).write_text(text)
    return root


def _line(record):
    return json.dumps(record) + "\n"


@st.composite
def stores(draw):
    """``(manifest, files)`` of a small store, honest or not."""
    names = draw(st.lists(st.sampled_from(sorted(POOLS)), min_size=1,
                          max_size=3, unique=True))
    grid = {
        name: draw(st.lists(st.sampled_from(POOLS[name]), min_size=1,
                            unique=True))
        for name in names
    }
    combos = list(product(*(grid[n] for n in sorted(grid))))
    num_shards = draw(st.integers(1, 3))
    weights = None
    if num_shards > 1 and draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 3), min_size=num_shards,
                                max_size=num_shards)
                       .filter(lambda w: sum(w) > 0 and len(set(w)) > 1))
    manifest = _manifest(grid, num_shards, weights)

    def record(index, kind):
        out = {"i": index, "p": [[n, v] for n, v in
                                 zip(sorted(grid), combos[index])]}
        if kind[0] == "err":
            out["err"] = ERRORS[kind[1]]
        else:
            out.update(s=SECONDS[kind[1]], e=ENERGY[kind[2]], a=AREA[kind[3]])
            if kind[0] == "bad":
                del out[draw(st.sampled_from("sea"))]
        return out

    # Which faults this store has, so each shows up alone as often as
    # together with the others.
    faults = draw(st.sets(st.sampled_from(["fail", "bad", "missing",
                                           "conflict"])))

    def rarely():
        return draw(st.integers(0, 9)) == 0

    def copy(index, honest):
        """A record of ``index``: its true result at another time, or
        (unless ``honest``) rarely another result."""
        kind = truth[index]
        if not honest and "conflict" in faults and rarely():
            kind = draw(kinds)
        out = record(index, kind)
        out["t"] = draw(st.floats(0, 1e9, allow_nan=False))
        if draw(st.booleans()):
            out["r"] = draw(st.integers(1, 3))
        return out

    def kind_of(name):
        return st.tuples(st.just(name), st.integers(0, 2), st.integers(0, 2),
                         st.integers(0, 1))

    kinds = st.one_of(kind_of("ok"), st.tuples(st.just("err"), st.integers(0, 1)),
                      kind_of("bad"))
    truth = []
    for _ in combos:
        kind = draw(kind_of("ok"))
        if "fail" in faults and draw(st.integers(0, 3)) == 0:
            kind = ("err", draw(st.integers(0, 1)))
        if "bad" in faults and rarely():
            kind = ("bad",) + kind[1:] if kind[0] == "ok" else kind
        truth.append(kind)
    specs = [ShardSpec(k, num_shards, weights=tuple(weights) if weights
                       else None) for k in range(1, num_shards + 1)]
    files = {}
    for spec in specs:
        owned = list(spec.indices(len(combos)))
        lines = []
        for index in owned:
            if "missing" in faults and rarely():
                continue  # missing, unless a steal file covers it
            lines.append(_line(copy(index, honest=True)))
            if rarely():  # a repeat: the first wins
                lines.append(_line(copy(index, honest=False)))
        stealable = [i for i in range(len(combos)) if i not in owned]
        stolen = draw(st.lists(st.sampled_from(stealable), max_size=6)
                      if stealable else st.just([]))
        steal_lines = [_line(copy(index, honest=False)) for index in stolen]
        for name, body in (
            (f"shard-{spec.index:04d}-of-{num_shards:04d}.jsonl", lines),
            (f"steal-{spec.index:04d}-of-{num_shards:04d}.jsonl", steal_lines),
        ):
            if not body and draw(st.booleans()):
                continue
            body = draw(st.permutations(body))
            text = "".join(body)
            if draw(st.integers(0, 4)) == 0:  # a torn tail
                torn = json.dumps(record(0, truth[0]))
                text += torn[: draw(st.integers(1, len(torn) - 1))]
            files[name] = text
    return manifest, files


def _outcome(merge, root):
    """What a merge of ``root`` returns or raises, with its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            merged = merge(root)
        except Exception as exc:  # noqa: BLE001 - compared below
            result = ("refused", type(exc), str(exc))
        else:
            result = ("merged", list(merged.points), list(merged.frontier),
                      merged.dropped, merged.duplicates)
    return result + ([str(w.message) for w in caught],)


@settings(max_examples=200, deadline=None)
@given(stores())
def test_columns_equal_the_dict_fold(store):
    manifest, files = store
    with tempfile.TemporaryDirectory() as tmp:
        root = _write_store(Path(tmp) / "store", manifest, files)
        assert _outcome(merge_store, root) == _outcome(dict_merge_store, root)


GRID = {"mac_lines": [16, 32, 64], "ae_compression": [None, 0.5]}


def _honest_files(grid=GRID, num_shards=2):
    """Complete shard files of a 2-shard store, all points scored."""
    names = sorted(grid)
    combos = list(product(*(grid[n] for n in names)))
    files = {}
    for k in range(1, num_shards + 1):
        files[f"shard-{k:04d}-of-{num_shards:04d}.jsonl"] = "".join(
            _line({"i": i, "p": [[n, v] for n, v in zip(names, combos[i])],
                   "s": 1e-3 * (i + 1), "e": 1e-4 * (6 - i), "a": 128,
                   "t": 1.0})
            for i in ShardSpec(k, num_shards).indices(len(combos))
        )
    return files


def _records(files, name):
    return [json.loads(line) for line in files[name].splitlines()]


class TestFixedStores:
    def test_a_conflicting_steal_duplicate_is_refused(self, tmp_path):
        """A stolen copy whose result differs — a failure where the
        owner scored, or other seconds — refuses the store both ways."""
        for n, change in enumerate(({"err": "boom"}, {"s": 9.0})):
            files = _honest_files()
            record = {**_records(files, "shard-0002-of-0002.jsonl")[1],
                      **change, "t": 5.0}
            if "err" in change:
                del record["s"], record["e"], record["a"]
            files["steal-0001-of-0002.jsonl"] = _line(record)
            root = _write_store(tmp_path / f"s{n}", _manifest(GRID, 2), files)
            message = ("grid index 3 appears in multiple files with "
                       "conflicting results — the evaluator is not "
                       "deterministic, or the store mixes studies")
            for merge in (merge_store, dict_merge_store):
                with pytest.raises(StoreCorruptError) as exc:
                    merge(root)
                assert str(exc.value) == message

    @pytest.mark.parametrize("case", ["value", "type", "name", "short"])
    def test_parameters_that_are_not_the_grid_index_are_refused(
            self, tmp_path, case):
        files = _honest_files()
        name = "shard-0001-of-0002.jsonl"
        records = _records(files, name)  # indices 0, 2, 4
        bad = records[1]  # index 2: ae_compression None, mac_lines 64
        bad["p"] = {
            "value": [["ae_compression", None], ["mac_lines", 32]],
            "type": [["ae_compression", None], ["mac_lines", 64.0]],
            "name": [["ae_compression", None], ["mac_line", 64]],
            "short": [["mac_lines", 64]],
        }[case]
        files[name] = "".join(map(_line, records))
        root = _write_store(tmp_path / "store", _manifest(GRID, 2), files)
        dict_merge_store(root)  # the dict fold renders the record's p
        with pytest.raises(StoreCorruptError) as exc:
            merge_store(root)
        assert str(exc.value) == (
            f"malformed completion record {bad!r}: parameters are not grid "
            "index 2's [['ae_compression', None], ['mac_lines', 64]]"
        )

    def test_a_parameter_mismatch_waits_for_the_missing_check(self, tmp_path):
        files = _honest_files()
        name = "shard-0001-of-0002.jsonl"
        records = _records(files, name)
        records[0]["p"][1][1] = 128
        files[name] = "".join(map(_line, records[:2]))  # index 4 missing
        root = _write_store(tmp_path / "store", _manifest(GRID, 2), files)
        with pytest.raises(IncompleteStoreError):
            merge_store(root)


class TestGridPoints:
    def _merged(self, tmp_path):
        files = _honest_files()
        records = _records(files, "shard-0002-of-0002.jsonl")
        records[0] = {key: v for key, v in records[0].items()
                      if key not in "sea"} | {"err": "boom"}
        files["shard-0002-of-0002.jsonl"] = "".join(map(_line, records))
        root = _write_store(tmp_path / "store", _manifest(GRID, 2), files)
        with pytest.warns(RuntimeWarning):
            expected = dict_merge_store(root)
        with pytest.warns(RuntimeWarning):
            return merge_store(root), list(expected.points)

    def test_a_sequence_of_rebuilt_points(self, tmp_path):
        merged, expected = self._merged(tmp_path)
        points = merged.points
        assert isinstance(points, GridPoints)
        assert len(points) == len(expected) == 5  # grid index 1 failed
        assert list(points) == expected
        assert [points[i] for i in range(-5, 5)] == expected + expected
        with pytest.raises(IndexError):
            points[5]
        assert [index for index, _ in points.indexed()] == [0, 2, 3, 4, 5]
        assert points.index(expected[3]) == 3 and expected[2] in points
        assert list(points.column("seconds")) == [p.seconds for p in expected]
        assert list(points.column("edp")) == [p.edp for p in expected]
        assert list(merged.frontier) == pareto_frontier(expected)
        assert pareto_frontier(points, ("area_proxy", "edp")) == \
            pareto_frontier(expected, ("area_proxy", "edp"))


class TestLazyRender:
    def test_lazy_array_renders_as_its_list(self):
        rows = [{"b": 1.5, "a": None}, {"b": [1, 2]}]
        lazy = LazyArray(lambda: iter(rows), len(rows))
        assert len(lazy) == 2 and list(lazy) == list(lazy) == rows
        assert to_json({"x": lazy, "y": LazyArray(iter, 0)}) == \
            to_json({"x": rows, "y": []})


class TestNoRecordDict:
    """Resume and partial results fold the ledgers: no record dict."""

    @pytest.fixture()
    def no_dict(self, monkeypatch):
        def loaded(*args):  # pragma: no cover - must not run
            raise AssertionError("records were indexed into a dict")

        monkeypatch.setattr(ResultStore, "load_records", loaded)

    def test_a_resumed_shard_skips_its_recorded_indices(self, tmp_path,
                                                        no_dict):
        workload = cached_model_workload("deit-tiny", sparsity=0.9)
        first = run_shard(workload, GRID, "1/2", tmp_path / "s")
        again = run_shard(workload, GRID, "1/2", tmp_path / "s")
        assert first.evaluated == 3
        assert again.evaluated == 0 and again.skipped == 3

    def test_partial_results_bytes(self, tmp_path, no_dict):
        """A running job's document, as the dict of records rendered it."""
        manager = JobManager(tmp_path, workers=0)
        info = manager.submit({"grid": GRID, "evaluator": "cycle",
                               "model": "deit-tiny", "n_shards": 2})
        assert manager.run_next() is True  # one of two shards ran
        text, partial = manager.results(info["id"])
        store = ResultStore(tmp_path / "jobs" / info["id"] / "store")
        records = {}
        for _, _, path in store.shard_files():
            for index, record in store.iter_records(path):
                records.setdefault(index, record)
        points = []
        for index in sorted(records):
            _, result = decode_record(records[index])
            if not isinstance(result, PointFailure):
                points.append({"index": index,
                               "parameters": dict(result.parameters),
                               "seconds": result.seconds,
                               "energy_joules": result.energy_joules,
                               "edp": result.edp})
        assert partial is True and len(points) == 3
        assert text == to_json({"partial": True, "state": "running",
                                "evaluator": "cycle", "grid_size": 6,
                                "done": len(records), "points": points})
        grid_points, recorded = scored_so_far(store.root)
        assert recorded == 3 and len(grid_points) == 3
