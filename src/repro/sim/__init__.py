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
* :class:`ModelSimulatorBase` — adds the GEMM walk for
  ``simulate_model``, with a hook for which simulator runs the dense path.

Subclasses override narrow hooks (per-layer kwargs, the dense-path
simulator) rather than rewriting the loops; fast batched
implementations (the cycle simulator's grid walk, the analytical model's
array geometry) override the whole-model method itself and are tested
bit-for-bit against a per-layer reference (the cycle simulator's scalar
event loop, the analytical model's per-layer reports folded with
:func:`merge_results`).

Design-space exploration plugs into the same layer through the
:class:`~repro.sim.evaluator.Evaluator` protocol (:mod:`repro.sim.evaluator`):
a strategy mapping ``(workload, config, accel_kwargs)`` to the objective
metrics a DSE point is built from, with analytical, cycle-accurate and
hybrid (analytical-prune, cycle-rescore) built-ins.
"""

from .protocol import ModelSimulator, Simulator
from .engine import AttentionSimulatorBase, ModelSimulatorBase, merge_results
from .evaluator import (
    AnalyticalEvaluator,
    BatchEvaluator,
    CycleSimEvaluator,
    EvalMetrics,
    Evaluator,
    HybridEvaluator,
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
    "BatchEvaluator",
    "EvalMetrics",
    "UnsupportedParameterError",
    "AnalyticalEvaluator",
    "CycleSimEvaluator",
    "HybridEvaluator",
    "dse_parameter_names",
    "resolve_evaluator",
    "evaluator_spec",
    "evaluator_from_spec",
]
