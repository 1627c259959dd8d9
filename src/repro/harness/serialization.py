"""JSON export of experiment and DSE results.

Every ``--json`` file and every served result document is ``to_json``
text (or its chunks, :func:`iter_json`), so equal payloads are equal
bytes.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = ["dse_result_payload", "iter_json", "to_json"]


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
    ``frontier``, when a caller already holds ``pareto_frontier(points)``
    (a merge does), flags those same point objects instead of running
    the rule again.
    """
    from .dse import pareto_frontier

    if frontier is None:
        frontier = pareto_frontier(points)
    on_front = set(map(id, frontier))
    return {
        "model": model,
        "sparsity": sparsity,
        "evaluator": evaluator_name,
        "grid": {name: list(values) for name, values in grid.items()},
        "points": [
            {
                "parameters": dict(point.parameters),
                "seconds": point.seconds,
                "energy_joules": point.energy_joules,
                "edp": point.edp,
                "pareto": id(point) in on_front,
            }
            for point in points
        ],
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
    """JSON-dump any harness result (numpy types handled)."""
    return "".join(iter_json(payload, indent))
