"""An evaluator wrapper that injects seeded faults around real scoring."""

from __future__ import annotations

from .errors import FaultInjectedError

__all__ = ["FaultyEvaluator"]


class FaultyEvaluator:
    """Wrap any evaluator with a :class:`~repro.faults.FaultPlan`.

    Scores rows like any evaluator: each call fires the plan's one-shot
    hang at most once, returns a :class:`FaultInjectedError` for every
    seeded faulty row, and scores the healthy rows with one inner
    ``evaluate_batch`` call.  Faulty rows are picked by the row's sorted
    ``(name, value)`` pairs — the tuple ``DesignPoint.parameters`` holds
    — not by grid order, so shard layout, stealing and chunking never
    change which points fault, and every injected failure lands on one
    attributable point for the retry machinery to re-evaluate.
    """

    def __init__(self, inner, plan):
        # Resolved lazily so this module stays stdlib-only at import time
        # (obs/dist import sibling fault modules at module level).
        from ..sim.evaluator import resolve_evaluator
        from .plan import plan_from_spec

        self.inner = resolve_evaluator(inner)
        self.fault_plan = plan_from_spec(plan)

    def evaluate_batch(self, workload, base_config, names, rows):
        rows = list(rows)
        self.fault_plan.evaluator_hang()
        results = [None] * len(rows)
        healthy = []
        for i, row in enumerate(rows):
            try:
                self.fault_plan.evaluator_error(repr(tuple(zip(names, row))))
            except FaultInjectedError as exc:
                results[i] = exc
            else:
                healthy.append(i)
        if healthy:
            scored = self.inner.evaluate_batch(
                workload, base_config, names, [rows[i] for i in healthy]
            )
            for i, result in zip(healthy, scored, strict=True):
                results[i] = result
        return results
