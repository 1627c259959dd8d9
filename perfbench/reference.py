"""In-process reference renders: what ``python -m repro dse --json`` writes.

Imported only after a timed window closes, so the load generator never
carries the package under test while it measures.
"""

from __future__ import annotations

import sys

from .common import SRC


def render_study(model, sparsity, grid) -> bytes:
    """``sweep_design_space`` → ``dse_result_payload`` → ``to_json`` bytes."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.harness.dse import sweep_design_space
    from repro.harness.serialization import dse_result_payload, to_json
    from repro.perf import cached_model_workload

    grid = {name: tuple(values) for name, values in grid.items()}
    workload = cached_model_workload(model, sparsity=sparsity)
    points = sweep_design_space(workload, grid, evaluator="cycle")
    payload = dse_result_payload(model, sparsity, "cycle", grid, points)
    return to_json(payload).encode("utf-8")
