"""Unified simulation-engine layer shared by every simulator in the repo.

Every hardware model — :class:`~repro.hw.accelerator.ViTCoDAccelerator`,
:class:`~repro.baselines.sanger.SangerSimulator`,
:class:`~repro.baselines.spatten.SpAttenSimulator`,
:class:`~repro.hw.cycle_sim.CycleAccurateSimulator`, and the analytical
CPU/GPU platforms — exposes the same whole-model surface, captured here as
two structural protocols:

* :class:`Simulator` — ``simulate_attention(model) -> result`` plus a
  ``name``; the result carries additive totals and a ``merged`` method;
* :class:`ModelSimulator` — adds ``simulate_model(model)`` (attention plus
  the dense QKV/projection/MLP GEMMs).

The protocols are *structural* (:func:`typing.runtime_checkable`): anything
with the right methods conforms, no inheritance required.  The experiment
harness, DSE sweeps and benchmark suite program against this surface only,
so a new simulator plugs into every figure runner by implementing it.

Two base classes provide the shared accumulation machinery that used to be
re-implemented (four times) as per-simulator merge loops:

* :class:`AttentionSimulatorBase` — drives ``simulate_attention_layer``
  over ``model.attention_layers`` and folds the per-layer reports with
  :func:`merge_results` (raising a clear :class:`ValueError` on empty
  models instead of crashing);
* :class:`ModelSimulatorBase` — the one ``simulate_model``: the dense
  simulator's GEMM walk folded onto the attention totals, with a hook for
  which simulator runs the dense path (ViTCoD's array, reconfigured for
  the attention-only baselines).

Subclasses override narrow hooks (per-layer kwargs, the dense-path
simulator) rather than rewriting the loops; the walks (the cycle
simulator's grid walk, the analytical model's array walks) override
``simulate_attention`` itself, their one-layer cases serve
``simulate_attention_layer``, and both are tested bit-for-bit against a
scalar reference (the cycle simulator's event loop in
``tests/cycle_reference.py``, the analytical model's per-layer reports in
``tests/analytical_oracle.py``, folded with :func:`merge_results`).

Design-space exploration plugs into the same layer through the
:class:`~repro.sim.evaluator.Evaluator` protocol (:mod:`repro.sim.evaluator`):
a strategy scoring a chunk of grid rows with ``evaluate_batch``, one
objective-metrics record or one exception per row, with analytical and
cycle-accurate built-ins.
A per-point callable ``(workload, config, accel_kwargs) -> metrics``
reaches the same protocol through one adapter,
:class:`~repro.sim.evaluator.PointEvaluator`.
"""

from .protocol import ModelSimulator, Simulator
from .engine import AttentionSimulatorBase, ModelSimulatorBase, merge_results
from .evaluator import (
    AnalyticalEvaluator,
    CycleSimEvaluator,
    EvalMetrics,
    Evaluator,
    PointEvaluator,
    UnsupportedParameterError,
    dse_parameter_names,
    evaluator_from_spec,
    evaluator_spec,
    resolve_evaluator,
)

__all__ = [
    "Simulator",
    "ModelSimulator",
    "AttentionSimulatorBase",
    "ModelSimulatorBase",
    "merge_results",
    "Evaluator",
    "PointEvaluator",
    "EvalMetrics",
    "UnsupportedParameterError",
    "AnalyticalEvaluator",
    "CycleSimEvaluator",
    "dse_parameter_names",
    "resolve_evaluator",
    "evaluator_spec",
    "evaluator_from_spec",
]
