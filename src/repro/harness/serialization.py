"""JSON export of experiment and DSE results.

Every ``--json`` file and every served result document is ``to_json``
text (or its chunks, :func:`iter_json`), so equal payloads are equal
bytes.
"""

from __future__ import annotations

import io
import json

import numpy as np

__all__ = ["LazyArray", "dse_result_payload", "flag_frontier", "iter_json", "to_json"]


class LazyArray(tuple):
    """A sequence whose items are built one at a time as they are read.

    ``build`` returns a fresh iterator over the ``length`` items, and
    each pass calls it again, so no item outlives its use: the table
    reads its rows twice and keeps neither.  A ``tuple`` only so that
    :func:`iter_json` encodes it as an array: it offers ``len`` and
    iteration, and its own storage stays empty, so indexing, comparing
    or ``json.dumps`` without an indent see no items (``list()`` it
    first).
    """

    def __new__(cls, build, length):
        array = super().__new__(cls)
        array._build, array._length = build, length
        return array

    def __len__(self):
        return self._length

    def __iter__(self):
        return self._build()


def flag_frontier(points, frontier):
    """Each point with whether it is on ``frontier``, flagged by position.

    ``frontier`` is a subsequence of ``points`` in their order, as
    :func:`~repro.harness.dse.pareto_frontier` returns it, so one walk
    over both flags the position where the next frontier point occurs.
    Points compare by value, so a merge's rebuilt frontier flags the
    positions its very objects would; equal points are on the frontier
    together or not at all, so a tie cannot shift a flag.
    """
    ahead = iter(frontier)
    target = next(ahead, None)
    for point in points:
        pareto = point == target
        if pareto:
            target = next(ahead, None)
        yield point, pareto


def dse_result_payload(
    model, sparsity, evaluator_name, grid, points, *, frontier=None
) -> dict:
    """THE serialisable form of a finished DSE sweep.

    One payload builder shared by every surface that renders a sweep —
    ``python -m repro dse``, ``dse-merge``, and the serve layer's
    ``GET /jobs/<id>/results`` — so a merged sharded store and a job
    served over HTTP reproduce the single-process sweep's JSON **byte
    for byte** (``to_json`` of equal payloads is identical text: keys
    are sorted and floats round-trip through the shortest repr).
    ``points`` is a sequence (a list, or a merge's
    :class:`~repro.harness.dse.GridPoints`); each point's dict is built
    when the encoder (or the CLI's table) reads it, and no other copy
    of the points is made.  ``frontier``, when a caller already holds
    ``pareto_frontier(points)`` (a merge does), is used instead of
    running the rule again; see :func:`flag_frontier`.
    """
    from .dse import pareto_frontier

    if frontier is None:
        frontier = pareto_frontier(points)

    def point_dicts():
        for point, pareto in flag_frontier(points, frontier):
            yield {
                "parameters": dict(point.parameters),
                "seconds": point.seconds,
                "energy_joules": point.energy_joules,
                "edp": point.edp,
                "pareto": pareto,
            }

    return {
        "model": model,
        "sparsity": sparsity,
        "evaluator": evaluator_name,
        "grid": {name: list(values) for name, values in grid.items()},
        "points": LazyArray(point_dicts, len(points)),
    }


class _Encoder(json.JSONEncoder):
    """``json`` with numpy scalars and arrays taken as their Python values."""

    def default(self, o):
        if isinstance(o, (np.integer, np.floating, np.ndarray)):
            return o.tolist()
        return super().default(o)


def iter_json(payload, indent=2):
    """The text of :func:`to_json` as the encoder produces it, chunk by
    chunk, so a large result can be written without one string of it."""
    return _Encoder(indent=indent, sort_keys=True).iterencode(payload)


def to_json(payload, indent=2) -> str:
    """JSON-dump any harness result (numpy types handled).

    The chunks go into one buffer as they come, not into a list of them.
    """
    text = io.StringIO()
    for chunk in iter_json(payload, indent):
        text.write(chunk)
    return text.getvalue()
