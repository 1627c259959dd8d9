"""ViTCoD's split-and-conquer sparsity algorithm (Algorithm 1)."""

from .pruning import prune_attention_map, prune_layer, mask_sparsity
from .reordering import ReorderResult, find_global_tokens, reorder_attention_map
from .split_conquer import HeadPartition, SplitConquerResult, split_and_conquer
from .patterns import synthetic_vit_attention, synthetic_nlp_attention
from . import metrics

__all__ = [
    "prune_attention_map",
    "prune_layer",
    "mask_sparsity",
    "ReorderResult",
    "find_global_tokens",
    "reorder_attention_map",
    "HeadPartition",
    "SplitConquerResult",
    "split_and_conquer",
    "synthetic_vit_attention",
    "synthetic_nlp_attention",
    "metrics",
]
