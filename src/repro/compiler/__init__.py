"""Algorithm-hardware interface pipeline (paper Fig. 14)."""

from .isa import Opcode, Instruction, Program
from .parser import LayerConfig, parse_layers
from .codegen import compile_layers
from .executor import execute_attention_layer
from .reconfig import (
    CompileCost,
    estimate_compile_cost,
    amortized_overhead,
    break_even_inferences,
)

__all__ = [
    "Opcode",
    "Instruction",
    "Program",
    "LayerConfig",
    "parse_layers",
    "compile_layers",
    "execute_attention_layer",
    "CompileCost",
    "estimate_compile_cost",
    "amortized_overhead",
    "break_even_inferences",
]
