"""The per-point oracle: any DSE evaluator, scored one point at a time.

Every built-in evaluator scores a chunk of grid points with
``evaluate_batch`` and one point with ``__call__``; the DSE engine uses
the batch route whenever an evaluator has one.  :class:`PerPoint` hides
it, so a sweep through the wrapper takes the per-point route for every
point — the grid values routed onto a cloned config by
``apply_dse_parameter``, then one ``__call__`` — which is the oracle the
batched sweeps are held to bit for bit.

A plain module (not a conftest) so the wrapper pickles into pool
workers.  The tests import it directly; ``benchmarks/perf`` and the CI
checks put this directory on ``sys.path`` first.
"""

__all__ = ["PerPoint"]


class PerPoint:
    """Score with ``inner.__call__`` only (no ``evaluate_batch``)."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name

    def __call__(self, workload, config, accel_kwargs):
        return self.inner(workload, config, accel_kwargs)
