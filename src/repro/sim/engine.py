"""Shared whole-model accumulation: one merge fold instead of four.

Before this layer existed, ``ViTCoDAccelerator``, ``SangerSimulator``,
``SpAttenSimulator`` and ``CycleAccurateSimulator`` each hand-rolled the
same ``report = None; for layer: report = report.merged(r)`` loop (and each
crashed with ``AttributeError: 'NoneType' object has no attribute
'workload'`` on models without attention layers).  The fold lives here
once, as :func:`merge_results`, and the two base classes drive it for any
per-layer simulator.
"""

from __future__ import annotations

__all__ = ["merge_results", "AttentionSimulatorBase", "ModelSimulatorBase"]


def merge_results(results, empty_message="no attention layers to simulate"):
    """Left-fold per-layer results via their pairwise ``merged`` method.

    Works for any additive result type (:class:`~repro.hw.trace.SimReport`,
    :class:`~repro.hw.cycle_sim.CycleSimResult`, ...).  Raises a clear
    :class:`ValueError` on an empty sequence — every simulator shares this
    behaviour instead of crashing on ``None``.
    """
    results = list(results)
    if not results:
        raise ValueError(empty_message)
    total = results[0]
    for result in results[1:]:
        total = total.merged(result)
    return total


class AttentionSimulatorBase:
    """Whole-model attention driver over a per-layer simulator.

    Subclasses implement ``simulate_attention_layer(layer, **kwargs)`` and
    may override :meth:`_layer_kwargs` — per-layer keyword arguments (e.g.
    SpAtten's cascade keep ratios).
    """

    name: str = "simulator"

    def simulate_attention_layer(self, layer, **kwargs):
        raise NotImplementedError

    # -------------------------------------------------- subclass hooks --
    def _layer_kwargs(self, model):
        """One kwargs dict per attention layer, in layer order."""
        return ({} for _ in model.attention_layers)

    # ------------------------------------------------------------ driver --
    def simulate_attention(self, model):
        """Simulate every attention layer of ``model`` and merge."""
        layers = model.attention_layers
        if not layers:
            raise ValueError(
                f"{self.name}: model {model.name!r} has no attention layers"
            )
        report = merge_results(
            self.simulate_attention_layer(layer, **kwargs)
            for layer, kwargs in zip(layers, self._layer_kwargs(model))
        )
        report.workload = f"{model.name}:attention"
        return report


class ModelSimulatorBase(AttentionSimulatorBase):
    """Adds the dense-layer (QKV / projection / MLP) walk for end-to-end
    simulation.  The dense path runs on :meth:`_dense_simulator` (a
    reconfigured ViTCoD array for the attention-only baselines; ViTCoD
    itself walks its GEMMs as arrays)."""

    # -------------------------------------------------- subclass hooks --
    def _dense_simulator(self):
        """Simulator whose ``simulate_gemm`` runs the dense layers."""
        return self

    # ------------------------------------------------------------ driver --
    def simulate_model(self, model):
        """End-to-end simulation: attention plus all dense layers."""
        report = self.simulate_attention(model)
        dense = self._dense_simulator()
        for gemm in model.linear_layers:
            report = report.merged(dense.simulate_gemm(gemm))
        report.workload = f"{model.name}:end2end"
        report.platform = self.name
        return report
