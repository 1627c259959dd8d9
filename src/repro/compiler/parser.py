"""Network parser: extract hardware configurations from sparse ViT layers.

First stage of the algorithm-hardware interface pipeline (Fig. 14): given
the split-and-conquer results for each layer, derive everything the hardware
compiler needs — global-token counts, non-zero counts, dataflow selection,
buffer and PE-line allocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


from ..hw.allocator import allocate_mac_lines
from ..hw.params import VITCOD_DEFAULT, HardwareConfig
from ..sparsity.split_conquer import SplitConquerResult

__all__ = ["LayerConfig", "parse_layers"]


@dataclass(frozen=True)
class LayerConfig:
    """Hardware configuration extracted for one attention layer."""

    layer_index: int
    num_tokens: int
    num_heads: int
    head_dim: int
    num_global_tokens: tuple  # per head
    denser_nnz: int
    sparser_nnz: int
    denser_lines: int
    sparser_lines: int
    dataflow_sddmm: str = "k_stationary"
    dataflow_spmm: str = "output_stationary"


def parse_layers(results: Sequence[SplitConquerResult], head_dim,
                 config: HardwareConfig = None) -> List[LayerConfig]:
    """Parse split-and-conquer outputs into per-layer hardware configs."""
    config = config or VITCOD_DEFAULT
    layer_configs = []
    for i, result in enumerate(results):
        denser_nnz = int(sum(p.denser_nnz for p in result.partitions))
        sparser_nnz = int(sum(p.sparser_nnz for p in result.partitions))
        denser_products = sum(
            p.num_global_tokens * p.num_tokens for p in result.partitions
        )
        alloc = allocate_mac_lines(
            config.num_mac_lines,
            denser_products * head_dim,
            sparser_nnz * head_dim,
        )
        layer_configs.append(
            LayerConfig(
                layer_index=i,
                num_tokens=result.num_tokens,
                num_heads=result.num_heads,
                head_dim=head_dim,
                num_global_tokens=tuple(
                    int(p.num_global_tokens) for p in result.partitions
                ),
                denser_nnz=denser_nnz,
                sparser_nnz=sparser_nnz,
                denser_lines=alloc.denser_lines,
                sparser_lines=alloc.sparser_lines,
            )
        )
    return layer_configs
