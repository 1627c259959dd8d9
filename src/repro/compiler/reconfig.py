"""Reconfigurability cost model (paper §V-B.3).

The accelerator supports task changes (new mask patterns, head counts) via
a one-time compilation that re-generates instructions and re-allocates
buffers/PE lines; "the cost of such reconfigurability is amortized across
the execution lifetime of each task".  This module quantifies exactly that:
compile-time cycles for a task, per-inference overhead after amortization,
and the break-even inference count versus a hypothetical dynamic-mask
design that pays prediction on every input.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Sequence

from ..hw.params import VITCOD_DEFAULT, HardwareConfig
from .codegen import compile_layers
from .parser import LayerConfig

__all__ = ["CompileCost", "estimate_compile_cost", "amortized_overhead",
           "break_even_inferences"]

#: Host-side work per emitted instruction (decode/pack/check), in
#: accelerator-clock cycles — a conservative constant for a small RISC
#: controller.
_CYCLES_PER_INSTRUCTION = 32
#: Cycles to rewrite one PE line's configuration registers.
_CYCLES_PER_LINE_CONFIG = 4


@dataclass(frozen=True)
class CompileCost:
    """One-time task-switch cost."""

    instruction_cycles: int
    index_build_cycles: int
    config_cycles: int

    @property
    def total_cycles(self):
        return (self.instruction_cycles + self.index_build_cycles
                + self.config_cycles)


def estimate_compile_cost(layer_configs: Sequence[LayerConfig],
                          config: HardwareConfig = None) -> CompileCost:
    """Compile cost for one task (all its attention layers)."""
    config = config or VITCOD_DEFAULT
    if not layer_configs:
        raise ValueError("no layer configs to compile")
    # The host emits the Fig. 14 program once per task.
    program = compile_layers(layer_configs)
    instruction_cycles = len(program) * _CYCLES_PER_INSTRUCTION
    # CSC build: one pass over the mask non-zeros (host-side, pipelined
    # 8 entries/cycle through the packer).
    nnz = sum(c.sparser_nnz for c in layer_configs)
    index_build_cycles = ceil(nnz / 8)
    config_cycles = (
        len(layer_configs) * config.num_mac_lines * _CYCLES_PER_LINE_CONFIG
    )
    return CompileCost(
        instruction_cycles=instruction_cycles,
        index_build_cycles=index_build_cycles,
        config_cycles=config_cycles,
    )


def amortized_overhead(compile_cost: CompileCost, inference_cycles,
                       num_inferences):
    """Fractional overhead of compilation after ``num_inferences`` runs."""
    if num_inferences < 1:
        raise ValueError("num_inferences must be >= 1")
    if inference_cycles <= 0:
        raise ValueError("inference_cycles must be positive")
    return compile_cost.total_cycles / (num_inferences * inference_cycles)


def break_even_inferences(compile_cost: CompileCost,
                          per_inference_saving_cycles):
    """Inferences needed before one-time compilation beats a dynamic design
    that saves nothing but pays ``per_inference_saving_cycles`` less... i.e.
    the number of inferences after which the fixed-mask design's total cost
    (compile + cheaper inference) undercuts the dynamic design's
    (no compile + prediction every input)."""
    if per_inference_saving_cycles <= 0:
        raise ValueError("per_inference_saving_cycles must be positive")
    return ceil(compile_cost.total_cycles / per_inference_saving_cycles)
