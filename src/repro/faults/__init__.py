"""Deterministic fault injection for chaos-testing the DSE stack.

``repro.faults`` is stdlib-only and follows the :mod:`repro.obs` contract:
until a plan is activated, every injection hook is a true no-op (one
thread-local ``None`` check).  A :class:`FaultPlan` rides the evaluator
spec wire format as an optional ``"faults"`` key, so faulty studies flow
through ``dse``, ``dse-shard``, ``dse-fleet`` and ``POST /jobs`` unchanged::

    {"name": "cycle", "faults": {"seed": 7, "evaluator_error_rate": 0.1}}

See :mod:`repro.faults.plan` for the catalogue of injection points and
the one-shot marker mechanics, and the README "Operating under failure"
runbook for how the dist/serve layers recover from each fault.
"""

from .errors import FaultInjectedError, FaultPlanError, TransientError
from .evaluator import FaultyEvaluator
from .plan import FaultPlan, activate, active_plan, plan_from_spec

__all__ = [
    "FaultInjectedError",
    "FaultPlan",
    "FaultPlanError",
    "FaultyEvaluator",
    "TransientError",
    "activate",
    "active_plan",
    "plan_from_spec",
]
