"""ViTCoD accelerator simulator (paper §V)."""

from .params import EnergyTable, HardwareConfig, VITCOD_DEFAULT, check_domain
from .workload import (
    HeadWorkload,
    HeadStatArrays,
    AttentionWorkload,
    GemmWorkload,
    ModelWorkload,
    attention_workload,
    dense_attention_workload,
    synthetic_attention_workload,
    model_workload,
)
from .trace import LatencyBreakdown, EnergyBreakdown, SimReport
from .dataflow import (
    s_stationary_sddmm_cycles,
    dense_gemm_cycles,
    softmax_cycles,
)
from .allocator import Allocation, allocate_mac_lines, allocate_mac_lines_batched
from .accelerator import ViTCoDAccelerator
from .dram import DramModel, DramRequest
from .cycle_sim import (
    CycleAccurateSimulator,
    CycleSimResult,
    merge_cycle_results,
)

__all__ = [
    "EnergyTable",
    "HardwareConfig",
    "VITCOD_DEFAULT",
    "check_domain",
    "HeadWorkload",
    "HeadStatArrays",
    "AttentionWorkload",
    "GemmWorkload",
    "ModelWorkload",
    "attention_workload",
    "dense_attention_workload",
    "synthetic_attention_workload",
    "model_workload",
    "LatencyBreakdown",
    "EnergyBreakdown",
    "SimReport",
    "s_stationary_sddmm_cycles",
    "dense_gemm_cycles",
    "softmax_cycles",
    "Allocation",
    "allocate_mac_lines",
    "allocate_mac_lines_batched",
    "ViTCoDAccelerator",
    "DramModel",
    "DramRequest",
    "CycleAccurateSimulator",
    "CycleSimResult",
    "merge_cycle_results",
]
