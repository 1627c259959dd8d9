"""An evaluator wrapper that injects seeded faults around real scoring."""

from __future__ import annotations

__all__ = ["FaultyEvaluator"]


class FaultyEvaluator:
    """Wrap any point evaluator with a :class:`~repro.faults.FaultPlan`.

    The wrapper is deliberately per-point (no ``evaluate_batch``): every
    injected fault must land on one attributable design point so the
    retry machinery can re-evaluate exactly that point.  Batch-capable
    inner evaluators simply fall back to their per-point protocol.

    Faults are selected from the *evaluated configuration*, not grid
    order, so shard layout, stealing and chunking never change which
    points are faulty.
    """

    def __init__(self, inner, plan):
        if inner is None or isinstance(inner, str):
            # Resolved lazily so this module stays stdlib-only at import
            # time (obs/dist import sibling fault modules at module level).
            from ..sim.evaluator import resolve_evaluator

            inner = resolve_evaluator(inner)
        from .plan import plan_from_spec

        self.inner = inner
        self.fault_plan = plan_from_spec(plan)

    def __call__(self, workload, config, accel_kwargs):
        self.fault_plan.evaluator_fault(_point_key(config, accel_kwargs))
        return self.inner(workload, config, accel_kwargs)

    def __repr__(self):
        return f"FaultyEvaluator({self.inner!r}, {self.fault_plan!r})"


def _point_key(config, accel_kwargs):
    """Stable identity of an evaluated point across processes and hosts."""
    return f"{config!r}|{sorted(accel_kwargs.items())!r}"
