"""Model configurations for every ViT the paper evaluates (§VI-A).

Two scales coexist:

* **Paper scale** (``paper_*`` fields): the true architectural dimensions of
  DeiT-Tiny/Small/Base, LeViT-128/192/256 and the Strided Transformer.  These
  drive the hardware simulators and analytical platform models — workload
  sizes (tokens, heads, feature dims, layer counts) must match the paper for
  the speedup shapes to be meaningful.
* **Sim scale** (``sim_*`` fields): reduced dimensions used when actually
  *training* the numpy models on synthetic data (pure-Python training at
  paper scale would be prohibitively slow and is unnecessary: the algorithm
  operates on attention maps whose structure is scale-independent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["StageSpec", "ModelConfig", "MODEL_REGISTRY", "get_config"]


@dataclass(frozen=True)
class StageSpec:
    """One stage of a (possibly pyramidal) ViT.

    ``num_tokens`` includes the CLS token where the architecture has one.
    """

    depth: int
    num_heads: int
    embed_dim: int
    num_tokens: int

    @property
    def head_dim(self):
        return self.embed_dim // self.num_heads

    def __post_init__(self):
        if self.embed_dim % self.num_heads != 0:
            raise ValueError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.num_heads}"
            )


@dataclass(frozen=True)
class ModelConfig:
    """Full description of one evaluated model."""

    name: str
    family: str  # "deit" | "levit" | "strided"
    task: str  # "classification" | "pose"
    paper_stages: Tuple[StageSpec, ...]
    sim_stages: Tuple[StageSpec, ...]
    mlp_ratio: float = 4.0
    # Fraction of end-to-end EdgeGPU latency in the self-attention module
    # (paper Fig. 4; LeViT-128 peaks at 69%).
    attention_latency_fraction: float = 0.5

    @property
    def paper_num_layers(self):
        return sum(s.depth for s in self.paper_stages)

    def paper_attention_workloads(self):
        """Per-layer (num_tokens, num_heads, head_dim) tuples at paper scale."""
        out = []
        for stage in self.paper_stages:
            out.extend(
                [(stage.num_tokens, stage.num_heads, stage.head_dim)] * stage.depth
            )
        return out

    def paper_attention_flops(self):
        """FLOPs of S=Q·Kᵀ and S·V across all layers (2 FLOPs per MAC)."""
        total = 0
        for n, h, dk in self.paper_attention_workloads():
            total += 2 * h * (n * n * dk) * 2  # QK^T and SV
        return total


def _single_stage(depth, heads, dim, tokens):
    return (StageSpec(depth=depth, num_heads=heads, embed_dim=dim, num_tokens=tokens),)


_SIM_DEIT = _single_stage(depth=4, heads=4, dim=32, tokens=17)
_SIM_LEVIT = (
    StageSpec(depth=2, num_heads=4, embed_dim=32, num_tokens=16),
    StageSpec(depth=2, num_heads=4, embed_dim=32, num_tokens=4),
)
_SIM_STRIDED = _single_stage(depth=3, heads=4, dim=32, tokens=27)

MODEL_REGISTRY = {
    "deit-tiny": ModelConfig(
        name="deit-tiny",
        family="deit",
        task="classification",
        paper_stages=_single_stage(12, 3, 192, 197),
        sim_stages=_SIM_DEIT,
        attention_latency_fraction=0.54,
    ),
    "deit-small": ModelConfig(
        name="deit-small",
        family="deit",
        task="classification",
        paper_stages=_single_stage(12, 6, 384, 197),
        sim_stages=_SIM_DEIT,
        attention_latency_fraction=0.53,
    ),
    "deit-base": ModelConfig(
        name="deit-base",
        family="deit",
        task="classification",
        paper_stages=_single_stage(12, 12, 768, 197),
        sim_stages=_SIM_DEIT,
        attention_latency_fraction=0.51,
    ),
    "levit-128": ModelConfig(
        name="levit-128",
        family="levit",
        task="classification",
        paper_stages=(
            StageSpec(4, 4, 128, 196),
            StageSpec(4, 8, 256, 49),
            StageSpec(4, 12, 384, 16),
        ),
        sim_stages=_SIM_LEVIT,
        mlp_ratio=2.0,
        attention_latency_fraction=0.69,
    ),
    "levit-192": ModelConfig(
        name="levit-192",
        family="levit",
        task="classification",
        paper_stages=(
            StageSpec(4, 3, 192, 196),
            StageSpec(4, 6, 288, 49),
            StageSpec(4, 8, 384, 16),
        ),
        sim_stages=_SIM_LEVIT,
        mlp_ratio=2.0,
        attention_latency_fraction=0.62,
    ),
    "levit-256": ModelConfig(
        name="levit-256",
        family="levit",
        task="classification",
        paper_stages=(
            StageSpec(4, 4, 256, 196),
            StageSpec(4, 6, 384, 49),
            StageSpec(4, 8, 512, 16),
        ),
        sim_stages=_SIM_LEVIT,
        mlp_ratio=2.0,
        attention_latency_fraction=0.60,
    ),
    "strided-transformer": ModelConfig(
        name="strided-transformer",
        family="strided",
        task="pose",
        paper_stages=_single_stage(6, 8, 256, 351),
        sim_stages=_SIM_STRIDED,
        mlp_ratio=2.0,
        attention_latency_fraction=0.55,
    ),
}

#: BERT-Base-like NLP workload for the §VI-B NLP-model discussion.
NLP_BERT_BASE = ModelConfig(
    name="bert-base-nlp",
    family="nlp",
    task="classification",
    paper_stages=_single_stage(12, 12, 768, 512),
    sim_stages=_SIM_DEIT,
)


def get_config(name):
    """Look up a model config by name (raises ``KeyError`` with suggestions)."""
    key = name.lower()
    if key not in MODEL_REGISTRY:
        raise KeyError(f"unknown model {name!r}; available: {sorted(MODEL_REGISTRY)}")
    return MODEL_REGISTRY[key]
