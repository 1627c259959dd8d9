"""Per-point oracles: each built-in strategy scored one point at a time.

Every built-in evaluator scores a chunk of grid rows with
``evaluate_batch``.  :class:`PerPoint` is the independent per-point
oracle the batched sweeps are held to bit for bit: a callable
``(workload, config, accel_kwargs) -> EvalMetrics`` which the DSE engine
lifts into rows through its one adapter
(:class:`repro.sim.evaluator.PointEvaluator`) — each row's values routed
onto a cloned config and accelerator kwargs, then one call.

* ``PerPoint(AnalyticalEvaluator())`` is the per-layer fold of the
  scalar analytical model (``analytical_oracle.fold``, the oracle
  ``test_sim_batched`` holds the accelerator's array walks to);
* ``PerPoint(CycleSimEvaluator())`` is the simulator's walk at P = 1 on the
  cloned config, charged with the production energy charge.  The scalar
  event loop is ``ReferenceCycleSimEvaluator`` (``tests/cycle_reference.py``).

A plain module, not a conftest: the tests import it directly, and
``benchmarks/perf`` and the CI checks put this directory on ``sys.path``
first.
"""

import analytical_oracle
from repro.hw import CycleAccurateSimulator, ViTCoDAccelerator
from repro.sim import EvalMetrics
from repro.sim.evaluator import _cycle_metrics

__all__ = ["PerPoint", "analytical_fold", "cycle_walk"]


def analytical_fold(workload, config, accel_kwargs):
    """The scalar analytical model's per-layer reports folded left to
    right."""
    report = analytical_oracle.fold(
        ViTCoDAccelerator(config=config, **accel_kwargs), workload
    )
    return EvalMetrics(seconds=report.seconds,
                       energy_joules=report.energy_joules)


def cycle_walk(workload, config, accel_kwargs):
    """The cycle simulator at one cloned design point (the walk at P = 1)."""
    result = CycleAccurateSimulator(
        config=config, **accel_kwargs
    ).simulate_attention(workload)
    (metrics,) = _cycle_metrics(workload, config, result.makespan,
                                result.dram_busy, config.bytes_per_cycle)
    return metrics


_ORACLES = {"analytical": analytical_fold, "cycle": cycle_walk}


class PerPoint:
    """``evaluator``'s per-point oracle (no ``evaluate_batch`` of its own)."""

    def __init__(self, evaluator):
        self.name = evaluator.name
        self.score = _ORACLES[evaluator.name]

    def __call__(self, workload, config, accel_kwargs):
        return self.score(workload, config, accel_kwargs)
