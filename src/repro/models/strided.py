"""Strided Transformer for 3-D pose estimation (Li et al., TMM 2022).

The paper evaluates this model on Human3.6M for AR/VR workloads.  The
defining architectural feature for workload purposes is a vanilla transformer
encoder over a long frame sequence followed by strided token reduction;
at simulation scale we implement its encoder as sequence-to-sequence
regression on our synthetic pose dataset.
"""

from __future__ import annotations

import numpy as np

from ..nn.autograd import Tensor
from ..nn.modules import Parameter, Linear, LayerNorm
from .vit import AttentionStack, TransformerBlock
from .config import ModelConfig

__all__ = ["StridedTransformer", "build_strided"]


class StridedTransformer(AttentionStack):
    """The Strided Transformer's encoder, regressing a pose per frame."""

    def __init__(self, joint_dim, num_tokens, depth, dim, num_heads,
                 mlp_ratio=2.0, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.num_tokens = num_tokens
        self.embed = Linear(joint_dim, dim, rng=rng)
        self.pos_embed = Parameter(rng.standard_normal((1, num_tokens, dim)) * 0.02)
        self.blocks = []
        for i in range(depth):
            block = TransformerBlock(dim, num_heads, mlp_ratio, rng=rng)
            setattr(self, f"block{i}", block)
            self.blocks.append(block)
        self.norm = LayerNorm(dim)
        self.head = Linear(dim, joint_dim, rng=rng)

    def forward(self, x):
        """Map (B, T, joint_dim) observations to (B, T, joint_dim) poses."""
        if not isinstance(x, Tensor):
            x = Tensor(x)
        tokens = self.embed(x) + self.pos_embed
        for block in self.blocks:
            tokens = block(tokens)
        return self.head(self.norm(tokens))


def build_strided(config: ModelConfig, joint_dim, seed=0):
    stage = config.sim_stages[0]
    return StridedTransformer(
        joint_dim=joint_dim,
        num_tokens=stage.num_tokens,
        depth=stage.depth,
        dim=stage.embed_dim,
        num_heads=stage.num_heads,
        mlp_ratio=config.mlp_ratio,
        seed=seed,
    )
