"""Instruction set of the ViTCoD accelerator's compiler (paper Fig. 14).

The hardware compiler turns parsed layer configurations into a short program
per attention layer; the instruction stream reconfigures buffers/PE
allocation, drives the two engines through the SDDMM → softmax → SpMM
pipeline, and inserts encode/decode steps around off-chip transfers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = ["Opcode", "Instruction", "Program"]


class Opcode(Enum):
    CONFIGURE = "configure"  # reallocate buffers / PE lines for this layer
    LOAD_INDEX = "load_index"  # preload CSC indexes into the index buffer
    LOAD = "load"  # stream a tensor from DRAM (optionally compressed)
    DECODE = "decode"  # AE decoder: compressed -> full head dimension
    ENCODE = "encode"  # AE encoder: full -> compressed before store
    SDDMM_DENSE = "sddmm_dense"  # denser engine: global-token columns
    SDDMM_SPARSE = "sddmm_sparse"  # sparser engine: CSC-indexed non-zeros
    SOFTMAX = "softmax"
    SPMM = "spmm"  # output-stationary S·V
    GEMM = "gemm"  # dense layer on the reconfigured array
    STORE = "store"  # write a tensor back to DRAM


@dataclass(frozen=True)
class Instruction:
    opcode: Opcode
    operands: dict = field(default_factory=dict)


@dataclass
class Program:
    """A compiled instruction stream for one model."""

    name: str
    instructions: list = field(default_factory=list)

    def append(self, opcode, **operands):
        self.instructions.append(Instruction(opcode, operands))

    def __len__(self):
        return len(self.instructions)
