"""One runner per paper table/figure (the experiment index of DESIGN.md §4).

Every function returns plain data (dicts / lists) that the benchmark suite
prints and asserts on; nothing here touches matplotlib so the harness runs
headless.  Heavy knobs (model list, sparsity grid, training epochs) are
parameters with paper-faithful defaults and fast overrides for CI.
"""

from __future__ import annotations

import numpy as np

from ..baselines import (
    SangerSimulator,
    SpAttenSimulator,
    cpu_platform,
    edgegpu_platform,
    gpu_platform,
)
from ..hw import ViTCoDAccelerator, attention_workload
from ..models import NLP_BERT_BASE, get_config
# Experiment runners are pure in (config, sparsity, seed, ...), so workload
# construction — by far their hottest step — goes through the process-wide
# memoization cache: figure runners that share a model/sparsity point build
# its masks once.
from ..perf.cache import cached_model_workload as model_workload
from ..roofline import sddmm_roofline_points, ridge_intensity
from ..sparsity import (
    metrics,
    prune_layer,
    split_and_conquer,
    synthetic_nlp_attention,
    synthetic_vit_attention,
)
from .surrogate import (
    BASELINE_ACCURACY,
    nlp_dynamic_accuracy,
    nlp_fixed_mask_accuracy,
    vit_fixed_mask_accuracy,
)

__all__ = [
    "DEFAULT_MODELS",
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

DEFAULT_MODELS = (
    "deit-tiny",
    "deit-small",
    "deit-base",
    "levit-128",
    "levit-192",
    "levit-256",
)

ALL_MODELS = DEFAULT_MODELS + ("strided-transformer",)


def _baseline_simulators():
    return [
        ("cpu", cpu_platform()),
        ("edgegpu", edgegpu_platform()),
        ("gpu", gpu_platform()),
        ("spatten", SpAttenSimulator()),
        ("sanger", SangerSimulator()),
    ]


# ----------------------------------------------------------------------
# Fig. 1 — accuracy/BLEU vs sparsity: fixed ViT masks vs dynamic NLP
# ----------------------------------------------------------------------
def fig1_accuracy_sparsity(sparsities=(0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95)):
    """Curves for the NLP-dynamic vs ViT-fixed comparison."""
    sparsities = list(sparsities)
    curves = {
        "deit-base (fixed)": [
            vit_fixed_mask_accuracy("deit-base", s) for s in sparsities
        ],
        "deit-small (fixed)": [
            vit_fixed_mask_accuracy("deit-small", s) for s in sparsities
        ],
        "nlp predictor (dynamic)": [
            nlp_dynamic_accuracy(s, "predictor") for s in sparsities
        ],
        "nlp hashing (dynamic)": [
            nlp_dynamic_accuracy(s, "hashing") for s in sparsities
        ],
        "nlp window (dynamic)": [
            nlp_dynamic_accuracy(s, "window") for s in sparsities
        ],
    }
    return {"sparsities": sparsities, "curves": curves}


# ----------------------------------------------------------------------
# Fig. 3 — roofline
# ----------------------------------------------------------------------
def fig3_roofline(**kwargs):
    points = sddmm_roofline_points(**kwargs)
    return {
        "ridge_ops_per_byte": ridge_intensity(),
        "points": [
            {
                "name": p.name,
                "intensity": p.intensity,
                "attainable_gops": p.attainable_gops,
                "bound": p.bound,
            }
            for p in points
        ],
    }


# ----------------------------------------------------------------------
# Fig. 4 — FLOPs and EdgeGPU latency breakdowns
# ----------------------------------------------------------------------
def fig4_breakdown(models=ALL_MODELS):
    """Per-model FLOPs and modelled EdgeGPU latency by component.

    Components follow the paper's grouping: the self-attention (SA) module
    includes QKV generation, the core Q·Kᵀ/S·V matmuls + reshape/splits, and
    the output projection; MLP is the rest.
    """
    platform = edgegpu_platform()
    rows = []
    for name in models:
        cfg = get_config(name)
        attn_core_flops = cfg.paper_attention_flops()
        qkv_proj_flops = 0
        mlp_flops = 0
        qkv_proj_kernels = 0
        mlp_kernels = 0
        for stage in cfg.paper_stages:
            d, n = stage.embed_dim, stage.num_tokens
            hidden = int(d * cfg.mlp_ratio)
            qkv_proj_flops += stage.depth * 2 * n * d * (3 * d + d)
            mlp_flops += stage.depth * 2 * 2 * n * d * hidden
            qkv_proj_kernels += stage.depth * 2
            mlp_kernels += stage.depth * 2

        core_s = attn_core_flops / (platform.attention_gflops * 1e9)
        core_s += cfg.paper_num_layers * 6 * platform.kernel_overhead_s
        qkv_s = qkv_proj_flops / (platform.gemm_gflops * 1e9)
        qkv_s += qkv_proj_kernels * platform.kernel_overhead_s
        mlp_s = mlp_flops / (platform.gemm_gflops * 1e9)
        mlp_s += mlp_kernels * platform.kernel_overhead_s

        total_flops = attn_core_flops + qkv_proj_flops + mlp_flops
        total_s = core_s + qkv_s + mlp_s
        rows.append(
            {
                "model": name,
                "flops_fraction": {
                    "attention_core": attn_core_flops / total_flops,
                    "qkv_proj": qkv_proj_flops / total_flops,
                    "mlp": mlp_flops / total_flops,
                },
                "latency_ms": {
                    "attention_core": core_s * 1e3,
                    "qkv_proj": qkv_s * 1e3,
                    "mlp": mlp_s * 1e3,
                },
                "sa_latency_fraction": (core_s + qkv_s) / total_s,
                "core_fraction_of_sa": core_s / (core_s + qkv_s),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Fig. 8 — polarization of attention maps
# ----------------------------------------------------------------------
def fig8_polarization(
    num_tokens=197, num_heads=12, num_layers=12, sparsity=0.9, theta_d=0.25, seed=0
):
    """Metrics of the prune-only / reorder-only / prune+reorder maps."""
    per_layer = []
    for layer in range(num_layers):
        maps = synthetic_vit_attention(
            num_tokens, num_heads=num_heads, seed=seed + 101 * layer
        )
        result = split_and_conquer(maps, target_sparsity=sparsity, theta_d=theta_d)
        reordered = result.reordered_masks()
        per_layer.append(
            {
                "prune_only": metrics.mask_summary(result.mask),
                "prune_and_reorder": metrics.mask_summary(
                    reordered, result.num_global_tokens
                ),
                "num_global_tokens": result.num_global_tokens.tolist(),
            }
        )
    mean_polarization = float(
        np.mean([l["prune_and_reorder"]["polarization"] for l in per_layer])
    )
    return {"layers": per_layer, "mean_polarization": mean_polarization}


# ----------------------------------------------------------------------
# Fig. 15 / Fig. 19(a) — speedups over the five baselines
# ----------------------------------------------------------------------
def fig15_speedups(sparsity=0.9, models=DEFAULT_MODELS, end_to_end=False, seed=0):
    """Normalized speedups of ViTCoD over CPU/EdgeGPU/GPU/SpAtten/Sanger."""
    vitcod = ViTCoDAccelerator()
    per_model = {}
    for name in models:
        wl = model_workload(get_config(name), sparsity=sparsity, seed=seed)
        if end_to_end:
            ours = vitcod.simulate_model(wl)
            theirs = {
                bname: sim.simulate_model(wl)
                for bname, sim in _baseline_simulators()
            }
        else:
            ours = vitcod.simulate_attention(wl)
            theirs = {
                bname: sim.simulate_attention(wl)
                for bname, sim in _baseline_simulators()
            }
        per_model[name] = {
            bname: ours.speedup_over(report) for bname, report in theirs.items()
        }
    mean = {
        bname: float(np.mean([per_model[m][bname] for m in models]))
        for bname in per_model[models[0]]
    }
    return {"sparsity": sparsity, "per_model": per_model, "mean": mean}


# ----------------------------------------------------------------------
# Fig. 17 — accuracy vs attention latency
# ----------------------------------------------------------------------
def fig17_accuracy_latency(models=DEFAULT_MODELS, sparsity=0.9, seed=0):
    """ViTCoD (pruned + AE) vs the unpruned baseline per model."""
    rows = []
    for name in models:
        cfg = get_config(name)
        sp = sparsity if cfg.family == "deit" else min(sparsity, 0.8)
        dense_wl = model_workload(cfg, sparsity=None)
        sparse_wl = model_workload(cfg, sparsity=sp, seed=seed)
        dense_t = ViTCoDAccelerator(use_ae=False).simulate_attention(dense_wl)
        vitcod_t = ViTCoDAccelerator().simulate_attention(sparse_wl)
        rows.append(
            {
                "model": name,
                "sparsity": sp,
                "dense_latency_ms": dense_t.seconds * 1e3,
                "vitcod_latency_ms": vitcod_t.seconds * 1e3,
                "latency_reduction": 1.0 - vitcod_t.seconds / dense_t.seconds,
                "dense_accuracy": BASELINE_ACCURACY[name],
                "vitcod_accuracy": vit_fixed_mask_accuracy(name, sp),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Fig. 19 — latency breakdown and energy efficiency
# ----------------------------------------------------------------------
def fig19_breakdown_energy(
    models=DEFAULT_MODELS, sparsities=(0.6, 0.7, 0.8, 0.9), seed=0
):
    """Breakdown (comp/preprocess/data movement) and energy comparison."""
    designs = {
        "vitcod": ViTCoDAccelerator(),
        "vitcod_no_ae": ViTCoDAccelerator(use_ae=False),
        "sanger": SangerSimulator(),
        "spatten": SpAttenSimulator(),
    }
    breakdown = {}
    latency = {name: [] for name in designs}
    energy = {name: [] for name in designs}
    for sparsity in sparsities:
        for model in models:
            wl = model_workload(get_config(model), sparsity=sparsity, seed=seed)
            for name, sim in designs.items():
                report = sim.simulate_attention(wl)
                latency[name].append(report.seconds)
                energy[name].append(report.energy_joules)
                if sparsity == max(sparsities):
                    breakdown.setdefault(name, []).append(report.latency.fractions())
    mean_breakdown = {
        name: {
            key: float(np.mean([b[key] for b in blist]))
            for key in ("compute", "preprocess", "data_movement")
        }
        for name, blist in breakdown.items()
    }
    mean_latency = {k: float(np.mean(v)) for k, v in latency.items()}
    mean_energy = {k: float(np.mean(v)) for k, v in energy.items()}
    return {
        "mean_breakdown_at_max_sparsity": mean_breakdown,
        "mean_latency_s": mean_latency,
        "mean_energy_j": mean_energy,
        "speedup_sc_only_vs_sanger": mean_latency["sanger"]
        / mean_latency["vitcod_no_ae"],
        "speedup_ae_on_top": mean_latency["vitcod_no_ae"]
        / mean_latency["vitcod"],
        "energy_efficiency_vs_sanger": mean_energy["sanger"]
        / mean_energy["vitcod"],
    }


# ----------------------------------------------------------------------
# Table I — taxonomy
# ----------------------------------------------------------------------
def table1_taxonomy():
    """The qualitative accelerator taxonomy, as data."""
    return [
        {
            "accelerator": "OuterSpace",
            "field": "tensor algebra", "workload": "SpGEMM",
            "dataflow": "outer-product", "pattern": "dynamic-unstructured",
            "codesign": True,
        },
        {
            "accelerator": "ExTensor",
            "field": "tensor algebra", "workload": "SpGEMM",
            "dataflow": "hybrid outer/inner", "pattern": "dynamic-unstructured",
            "codesign": False,
        },
        {
            "accelerator": "SpArch",
            "field": "tensor algebra", "workload": "SpGEMM",
            "dataflow": "condensed outer-product",
            "pattern": "dynamic-unstructured", "codesign": False,
        },
        {
            "accelerator": "Gamma",
            "field": "tensor algebra", "workload": "SpGEMM",
            "dataflow": "gustavson-row", "pattern": "dynamic-unstructured",
            "codesign": False,
        },
        {
            "accelerator": "SpAtten",
            "field": "nlp transformer", "workload": "sparse attention",
            "dataflow": "top-k selection",
            "pattern": "dynamic-coarse-structured", "codesign": True,
        },
        {
            "accelerator": "Sanger",
            "field": "nlp transformer", "workload": "sparse attention",
            "dataflow": "s-stationary", "pattern": "dynamic-fine-structured",
            "codesign": True,
        },
        {
            "accelerator": "ViTCoD",
            "field": "vit", "workload": "sparse attention",
            "dataflow": "k-stationary + output-stationary",
            "pattern": "static-denser-sparser", "codesign": True,
        },
    ]


# ----------------------------------------------------------------------
# §VI-C — pruning vs reordering ablation
# ----------------------------------------------------------------------
def ablation_prune_reorder(
    model="deit-base", sparsities=(0.6, 0.7, 0.8, 0.9), seed=0
):
    """Speedup contributed by pruning and by reordering (paper §VI-C).

    * pruning benefit: (reorder-only, i.e. dense) / (prune+reorder);
    * reordering benefit: (prune-only, unreordered) / (prune+reorder).
    """
    cfg = get_config(model)
    acc = ViTCoDAccelerator(use_ae=False)
    single = ViTCoDAccelerator(use_ae=False, two_pronged=False)
    rows = []
    dense_wl = model_workload(cfg, sparsity=None)
    dense_t = acc.simulate_attention(dense_wl).seconds
    for sparsity in sparsities:
        full_wl = model_workload(cfg, sparsity=sparsity, seed=seed)
        prune_only_wl = model_workload(
            cfg, sparsity=sparsity, seed=seed, reordered=False
        )
        full_t = acc.simulate_attention(full_wl).seconds
        prune_only_t = single.simulate_attention(prune_only_wl).seconds
        rows.append(
            {
                "sparsity": sparsity,
                # pruning benefit = reorder-only (dense) vs full pipeline
                "pruning_benefit": dense_t / full_t,
                # reordering benefit = prune-only vs full pipeline
                "reordering_benefit": prune_only_t / full_t,
            }
        )
    mean_prune = float(np.mean([r["pruning_benefit"] for r in rows]))
    mean_reorder = float(np.mean([r["reordering_benefit"] for r in rows]))
    return {
        "rows": rows,
        "mean_pruning_benefit": mean_prune,
        "mean_reordering_benefit": mean_reorder,
    }


# ----------------------------------------------------------------------
# §VI-B — NLP models discussion
# ----------------------------------------------------------------------
def nlp_attention_model_workload(sparsity=0.9, theta_d=0.25, seed=0):
    """BERT-Base-like attention workload with NLP-style scattered masks."""
    from ..hw.workload import ModelWorkload

    cfg = NLP_BERT_BASE
    stage = cfg.paper_stages[0]
    layers = []
    for i in range(stage.depth):
        maps = synthetic_nlp_attention(
            stage.num_tokens, num_heads=stage.num_heads, seed=seed + i
        )
        layers.append(attention_workload(prune_layer(maps, sparsity),
                                         stage.head_dim, theta_d))
    return ModelWorkload(
        name="bert-base-nlp", attention_layers=layers, linear_layers=()
    )


def nlp_comparison(sparsities=(0.6, 0.9), seed=0):
    """ViTCoD vs Sanger on NLP workloads, charging Sanger its dynamic
    prediction (paper: 1.93×/3.69× at 60 %/90 %), plus the accuracy cost of
    fixed masks on NLP."""
    rows = []
    for sparsity in sparsities:
        wl = nlp_attention_model_workload(sparsity=sparsity, seed=seed)
        ours = ViTCoDAccelerator().simulate_attention(wl)
        sanger = SangerSimulator(dynamic_masks=True).simulate_attention(wl)
        rows.append(
            {
                "sparsity": sparsity,
                "speedup_vs_sanger": ours.speedup_over(sanger),
                "fixed_mask_bleu_drop": BASELINE_ACCURACY["nlp-transformer"]
                - nlp_fixed_mask_accuracy(sparsity),
            }
        )
    return rows
