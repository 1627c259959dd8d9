"""Experiment harness: one runner per paper table/figure."""

from .report import format_table, iter_table
from .surrogate import (
    BASELINE_ACCURACY,
    vit_fixed_mask_accuracy,
    nlp_dynamic_accuracy,
    nlp_fixed_mask_accuracy,
)
from .dse import (
    DesignPoint,
    sweep_design_space,
    pareto_frontier,
    sensitivity,
)
from .serialization import iter_json, to_json
from .experiments import (
    DEFAULT_MODELS,
    ALL_MODELS,
    fig1_accuracy_sparsity,
    fig3_roofline,
    fig4_breakdown,
    fig8_polarization,
    fig15_speedups,
    fig17_accuracy_latency,
    fig19_breakdown_energy,
    table1_taxonomy,
    ablation_prune_reorder,
    nlp_comparison,
    nlp_attention_model_workload,
)

__all__ = [
    "DesignPoint",
    "sweep_design_space",
    "pareto_frontier",
    "sensitivity",
    "iter_json",
    "to_json",
    "format_table",
    "iter_table",
    "BASELINE_ACCURACY",
    "vit_fixed_mask_accuracy",
    "nlp_dynamic_accuracy",
    "nlp_fixed_mask_accuracy",
    "DEFAULT_MODELS",
    "ALL_MODELS",
    "fig1_accuracy_sparsity",
    "fig3_roofline",
    "fig4_breakdown",
    "fig8_polarization",
    "fig15_speedups",
    "fig17_accuracy_latency",
    "fig19_breakdown_energy",
    "table1_taxonomy",
    "ablation_prune_reorder",
    "nlp_comparison",
    "nlp_attention_model_workload",
]
