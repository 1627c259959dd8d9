"""Durable JSONL result store for sharded DSE sweeps.

A *store* is one directory shared by every shard of one study (locally, or
via a network filesystem across hosts):

.. code-block:: text

    store/
      MANIFEST.json              # grid, evaluator, config, workload spec
      shard-0001-of-0003.jsonl   # one completion record per grid point
      shard-0002-of-0003.jsonl
      shard-0003-of-0003.jsonl
      steal-0002-of-0003.jsonl   # records shard 2 stole from slower shards
      claims/                    # advisory steal-range claim files

Design rules, in order of importance:

* **append-only completion records** — every evaluated grid point becomes
  one JSON line carrying its grid index, parameters, objectives (or the
  evaluator's error) and completion timestamp; a record present in the
  file is a point that never needs re-evaluating, which is the whole
  resume story, and the timestamps give ``dse-status`` per-shard
  throughput and ETA for free;
* **atomic-enough writes** — the ledgers and the manifest are written
  by :mod:`repro.ledger`: a killed writer leaves at most one truncated
  final line, which loaders tolerate and resumers simply re-evaluate;
* **bit-exact round-trip** — objectives and parameters are written with
  Python's shortest-round-trip float repr (what :mod:`json` emits), so a
  merged :class:`~repro.harness.dse.DesignPoint` compares equal to the
  in-memory one, field for field — merged shard stores reproduce a
  single-process sweep *bit for bit*;
* **self-describing** — ``MANIFEST.json`` pins the grid, shard count,
  evaluator spec, hardware base config, workload recipe and (when
  non-uniform) the shard weight vector; a shard launched against a store
  created for different settings fails loudly (:class:`StoreMismatchError`)
  instead of silently mixing studies, and a manifest whose grid or
  evaluator name this version cannot score is refused where it is read;
* **duplicate records tolerated when bit-identical** — work-stealing
  means the same grid point may complete in a victim's shard file *and*
  a stealer's ``steal-*.jsonl`` file; evaluation is deterministic, so
  both records carry the same payload (everything but the ``t``
  timestamp — see :func:`record_payload`) and the merge keeps either,
  while genuinely conflicting duplicates raise.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List

from ..harness.dse import DesignPoint, PointFailure, check_grid, grid_size
from ..hw.params import EnergyTable, HardwareConfig
from ..ledger import (
    JsonlAppender,
    StoreCorruptError,
    StoreError,
    iter_jsonl,
    load_jsonl,
    make_dirs,
    publish,
)
from ..sim.evaluator import check_evaluator_name, evaluator_spec

__all__ = [
    "SCHEMA",
    "StoreError",
    "StoreCorruptError",
    "StoreMismatchError",
    "IncompleteStoreError",
    "ResultStore",
    "JsonlAppender",
    "load_jsonl",
    "encode_record",
    "record_payload",
    "build_manifest",
    "config_to_dict",
    "config_from_dict",
]

#: Manifest/record schema tag; bump on incompatible layout changes.
SCHEMA = "repro-dist/1"

MANIFEST_NAME = "MANIFEST.json"
CLAIMS_DIR = "claims"
_SHARD_RE = re.compile(r"^shard-(\d{4})-of-(\d{4})\.jsonl$")
_STEAL_RE = re.compile(r"^steal-(\d{4})-of-(\d{4})\.jsonl$")


class StoreMismatchError(StoreError):
    """A shard was pointed at a store created for different settings."""


class IncompleteStoreError(StoreError):
    """A merge was attempted before every grid point had a record."""


# ----------------------------------------------------------------------
# Completion records
# ----------------------------------------------------------------------
def encode_record(index: int, result, timestamp=None, retries: int = 0) -> dict:
    """One completion record: a scored point or a captured failure.

    Keys are terse on purpose (one record per grid point adds up):
    ``i`` grid index, ``p`` parameters as ``[name, value]`` pairs, then
    either ``s``/``e``/``a`` (seconds, energy, area proxy) or ``err``,
    plus ``t`` — the unix completion time (``timestamp`` overrides the
    clock; progress metadata only, ignored by the merge, so
    :func:`repro.dist.store_status` can derive per-shard throughput and
    ETA without affecting the bit-exact merge).  ``retries`` > 0 adds an
    ``r`` key — how many transient-failure re-evaluations this point
    cost — which is execution metadata like ``t``: healthy records stay
    byte-identical and :func:`record_payload` ignores it.
    """
    if isinstance(result, PointFailure):
        record = {
            "i": int(index),
            "p": [[name, value] for name, value in result.parameters],
            "err": result.error,
        }
    elif isinstance(result, DesignPoint):
        record = {
            "i": int(index),
            "p": [[name, value] for name, value in result.parameters],
            "s": result.seconds,
            "e": result.energy_joules,
            "a": result.area_proxy,
        }
    else:
        raise TypeError(f"expected DesignPoint or PointFailure, got {type(result)!r}")
    if retries:
        record["r"] = int(retries)
    record["t"] = time.time() if timestamp is None else float(timestamp)
    return record


def record_payload(record: dict) -> dict:
    """A completion record minus execution metadata (``t``/``r``).

    Two records are *the same completion* iff their payloads are equal:
    evaluation is deterministic, so a grid point redundantly evaluated by
    a victim shard and a work-stealer yields byte-identical parameters
    and objectives and differs only in when it finished (``t``) and how
    many transient hiccups each runner absorbed on the way (``r``).  The
    duplicate-tolerant merge compares payloads — identical payloads merge
    silently, conflicting ones raise :class:`StoreCorruptError`.
    """
    return {key: value for key, value in record.items() if key not in ("t", "r")}


# ----------------------------------------------------------------------
# Hardware-config round trip (manifests pin the swept base design point)
# ----------------------------------------------------------------------
def config_to_dict(config: HardwareConfig) -> dict:
    """JSON-safe :class:`~repro.hw.params.HardwareConfig` (nested energy)."""
    return asdict(config)


def config_from_dict(data: dict) -> HardwareConfig:
    """Inverse of :func:`config_to_dict`."""
    fields = dict(data)
    fields["energy"] = EnergyTable(**fields["energy"])
    return HardwareConfig(**fields)


def build_manifest(
    grid, num_shards: int, evaluator, base_config, workload_spec=None, weights=None
) -> dict:
    """The settings fingerprint every shard of one study must agree on.

    ``weights`` (the normalised :attr:`ShardSpec.weights` vector) is
    recorded only when non-uniform, so uniform studies keep their
    historical manifests byte for byte — and a shard launched with a
    different weight vector than the store was created for fails the
    field-by-field comparison loudly.
    """
    grid = {name: list(values) for name, values in grid.items()}
    manifest = {
        "schema": SCHEMA,
        "grid": grid,
        "grid_size": grid_size(grid),
        "num_shards": int(num_shards),
        "evaluator": evaluator_spec(evaluator),
        "base_config": config_to_dict(base_config),
        "workload": dict(workload_spec) if workload_spec else {"kind": "opaque"},
    }
    if weights is not None:
        manifest["weights"] = [int(weight) for weight in weights]
    return manifest


# ----------------------------------------------------------------------
# The store directory
# ----------------------------------------------------------------------
class ResultStore:
    """One sharded study's directory: manifest plus per-shard JSONL files."""

    def __init__(self, root):
        self.root = Path(root)

    @classmethod
    def create_or_attach(cls, root, manifest: dict):
        """Open a store for writing: create it, or attach to it.

        Returns ``(store, created)``, where ``created`` says whether this
        call published the manifest.  A served job is its store, so that
        flag alone tells a new job from one that already exists; see
        :meth:`ensure_manifest` for how concurrent creators of one
        directory resolve to one study.
        """
        store = cls(root)
        return store, store.ensure_manifest(manifest)

    # -- manifest ------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def read_manifest(self, missing_ok=False):
        if not self.manifest_path.exists():
            if missing_ok:
                return None
            raise StoreError(
                f"{self.root} is not a result store (no {MANIFEST_NAME}); "
                "run a shard into it first"
            )
        manifest = json.loads(self.manifest_path.read_text())
        self.check_manifest(manifest)
        return manifest

    def check_manifest(self, manifest: dict):
        """Refuse a recorded study this version cannot score: another
        ``schema`` (:class:`StoreMismatchError`), or a grid or evaluator
        name that fails :func:`~repro.harness.dse.check_grid` or
        :func:`~repro.sim.evaluator.check_evaluator_name` (``ValueError``).
        """
        if manifest.get("schema") != SCHEMA:
            raise StoreMismatchError(
                f"{self.manifest_path}: schema "
                f"{manifest.get('schema')!r} != {SCHEMA!r}"
            )
        check_grid(manifest["grid"])
        check_evaluator_name(manifest["evaluator"].get("name"))

    def ensure_manifest(self, manifest: dict) -> bool:
        """Create the store for ``manifest``, or verify it already matches;
        True if this call published the manifest.

        The first caller to run creates the directory (durably, with
        :func:`repro.ledger.make_dirs`) and *exclusively* publishes the
        manifest (:func:`repro.ledger.publish`: nobody reads
        a half-written one, and a creator that loses the race reads the
        winner's); every later caller — another shard process, possibly
        on another host, or a concurrent job submission in the serve
        layer — compares field by field and refuses to write into a store
        whose grid/evaluator/config/workload differ.  Exactly one creator
        can win the publish, so two simultaneous creations with
        *different* settings resolve to one study plus one loud
        :class:`StoreMismatchError` — never to a silently mixed store.
        """
        make_dirs(self.root)
        # JSON round-trip first so tuples/lists and int/float unify the
        # same way they will when read back.
        expected = json.loads(json.dumps(manifest, sort_keys=True, allow_nan=False))
        existing = self.read_manifest(missing_ok=True)
        published = False
        if existing is None:
            payload = json.dumps(expected, sort_keys=True, indent=2, allow_nan=False)
            published = publish(self.manifest_path, payload + "\n", exclusive=True)
            existing = expected if published else self.read_manifest()
        mismatched = sorted(
            key for key in set(expected) | set(existing)
            if expected.get(key) != existing.get(key)
        )
        if mismatched:
            raise StoreMismatchError(
                f"{self.root} was created for a different study "
                f"(mismatched manifest fields: {', '.join(mismatched)}); "
                "use a fresh --out directory per study"
            )
        return published

    # -- shard files ---------------------------------------------------
    def shard_path(self, shard) -> Path:
        return self.root / f"shard-{shard.index:04d}-of-{shard.count:04d}.jsonl"

    def _matching_files(self, pattern) -> List[tuple]:
        files = []
        if self.root.is_dir():
            for entry in self.root.iterdir():
                match = pattern.match(entry.name)
                if match:
                    files.append((int(match.group(1)), int(match.group(2)), entry))
        return sorted(files)

    def shard_files(self) -> List[tuple]:
        """Present shard files as sorted ``(index, count, path)`` triples."""
        return self._matching_files(_SHARD_RE)

    # -- work-stealing artifacts ---------------------------------------
    def steal_path(self, shard) -> Path:
        """Where shard ``K/N`` appends records it stole from other shards.

        One writer per file still holds: each shard owns exactly one
        steal file, named after the *stealer* — the indices inside belong
        to other shards by definition.
        """
        return self.root / f"steal-{shard.index:04d}-of-{shard.count:04d}.jsonl"

    def steal_files(self) -> List[tuple]:
        """Present steal files as sorted ``(index, count, path)`` triples."""
        return self._matching_files(_STEAL_RE)

    @property
    def claims_dir(self) -> Path:
        """Directory of advisory steal-range claim files (see runner)."""
        return self.root / CLAIMS_DIR

    def iter_records(self, path):
        """Each completion record of one JSONL file as ``(index, record)``,
        streamed in file order, duplicates included."""
        for record in iter_jsonl(path):
            if not isinstance(record, dict) or "i" not in record:
                raise StoreCorruptError(
                    f"{path}: record without a grid index: {record!r}"
                )
            yield int(record["i"]), record

    def load_records(self, path) -> Dict[int, dict]:
        """Index every completion record of one JSONL file.

        First record wins per index: a record is immutable once written
        (the evaluation is deterministic), so later duplicates — e.g. a
        shard re-run racing its predecessor's unflushed tail — carry the
        same data and are dropped.
        """
        records: Dict[int, dict] = {}
        for index, record in self.iter_records(path):
            records.setdefault(index, record)
        return records
