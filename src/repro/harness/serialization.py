"""Serialisation of simulation reports and experiment results.

Everything the harness produces can be exported to plain dicts / JSON / CSV
so external tooling (plotting notebooks, CI dashboards) can consume the
reproduction's numbers without importing the package.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from ..hw.trace import EnergyBreakdown, LatencyBreakdown, SimReport

__all__ = [
    "report_to_dict",
    "report_from_dict",
    "reports_to_csv",
    "dse_result_payload",
    "iter_json",
    "to_json",
]


def _plain(value):
    """Recursively convert numpy scalars/arrays into JSON-safe types."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def report_to_dict(report: SimReport) -> dict:
    """Flatten a :class:`SimReport` into a JSON-safe dict."""
    return {
        "platform": report.platform,
        "workload": report.workload,
        "frequency_hz": report.frequency_hz,
        "latency": {
            "compute": report.latency.compute,
            "preprocess": report.latency.preprocess,
            "data_movement": report.latency.data_movement,
        },
        "energy_pj": {
            "mac": report.energy.mac,
            "sram": report.energy.sram,
            "dram": report.energy.dram,
            "other": report.energy.other,
            "static": report.energy.static,
        },
        "seconds": report.seconds,
        "energy_joules": report.energy_joules,
        "details": _plain(report.details),
    }


def report_from_dict(data: dict) -> SimReport:
    """Inverse of :func:`report_to_dict` (derived fields recomputed)."""
    latency = LatencyBreakdown(**data["latency"])
    energy = EnergyBreakdown(**data["energy_pj"])
    return SimReport(
        platform=data["platform"],
        workload=data["workload"],
        latency=latency,
        energy=energy,
        frequency_hz=data["frequency_hz"],
        details=dict(data.get("details", {})),
    )


def reports_to_csv(reports) -> str:
    """Render reports as CSV (one row each, flat columns)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    header = [
        "platform",
        "workload",
        "seconds",
        "energy_joules",
        "compute_cycles",
        "preprocess_cycles",
        "data_movement_cycles",
    ]
    writer.writerow(header)
    for report in reports:
        row = [
            report.platform,
            report.workload,
            f"{report.seconds:.9g}",
            f"{report.energy_joules:.9g}",
            f"{report.latency.compute:.6g}",
            f"{report.latency.preprocess:.6g}",
            f"{report.latency.data_movement:.6g}",
        ]
        writer.writerow(row)
    return buffer.getvalue()


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
            return _plain(o)
        return super().default(o)


def iter_json(payload, indent=2):
    """The text of :func:`to_json` as the encoder produces it, chunk by
    chunk, so a large result can be written without one string of it."""
    return _Encoder(indent=indent, sort_keys=True).iterencode(payload)


def to_json(payload, indent=2) -> str:
    """JSON-dump any harness result (numpy types handled)."""
    return "".join(iter_json(payload, indent))
