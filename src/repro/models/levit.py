"""LeViT-style pyramidal ViT (multi-stage, shrinking token grid).

LeViT [Graham et al. 2021] interleaves transformer stages with spatial
subsampling.  At simulation scale we keep the defining property the paper's
workload analysis depends on — per-stage (tokens, heads, dim) — and model the
shrink step as average-pooling over 2×2 token neighbourhoods followed by a
linear width change.  Early convolutions are omitted per the paper (§IV-A:
"<7% of FLOPs").
"""

from __future__ import annotations

import numpy as np

from ..nn.autograd import Tensor
from ..nn.modules import Module, Parameter, Linear, LayerNorm
from .vit import AttentionStack, TransformerBlock
from .config import ModelConfig

__all__ = ["TokenPool", "LeViT", "build_levit"]


class TokenPool(Module):
    """2×2 average pooling over a square token grid plus width projection."""

    def __init__(self, in_dim, out_dim, in_tokens, rng=None):
        super().__init__()
        side = int(round(np.sqrt(in_tokens)))
        if side * side != in_tokens or side % 2 != 0:
            raise ValueError(
                f"TokenPool needs an even square token count, got {in_tokens}"
            )
        self.in_side = side
        self.out_tokens = (side // 2) ** 2
        self.proj = Linear(in_dim, out_dim, rng=rng)

    def forward(self, x):
        batch, tokens, dim = x.shape
        side = self.in_side
        grid = x.reshape(batch, side, side, dim)
        pooled = (
            grid[:, 0::2, 0::2, :]
            + grid[:, 0::2, 1::2, :]
            + grid[:, 1::2, 0::2, :]
            + grid[:, 1::2, 1::2, :]
        ) * 0.25
        pooled = pooled.reshape(batch, self.out_tokens, dim)
        return self.proj(pooled)


class LeViT(AttentionStack):
    """Multi-stage ViT with attention-based classification (mean pooling)."""

    def __init__(self, patch_dim, num_classes, stages, mlp_ratio=2.0, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.stages_spec = tuple(stages)
        first = stages[0]
        self.embed = Linear(patch_dim, first.embed_dim, rng=rng)
        self.pos_embed = Parameter(
            rng.standard_normal((1, first.num_tokens, first.embed_dim)) * 0.02
        )
        self.blocks = []
        self.pools = []
        idx = 0
        for s, stage in enumerate(stages):
            for _ in range(stage.depth):
                block = TransformerBlock(
                    stage.embed_dim, stage.num_heads, mlp_ratio, rng=rng
                )
                setattr(self, f"block{idx}", block)
                self.blocks.append(block)
                idx += 1
            if s + 1 < len(stages):
                pool = TokenPool(
                    stage.embed_dim,
                    stages[s + 1].embed_dim,
                    stage.num_tokens,
                    rng=rng,
                )
                setattr(self, f"pool{s}", pool)
                self.pools.append(pool)
            else:
                self.pools.append(None)
        self.norm = LayerNorm(stages[-1].embed_dim)
        self.head = Linear(stages[-1].embed_dim, num_classes, rng=rng)

    def forward(self, x):
        if not isinstance(x, Tensor):
            x = Tensor(x)
        tokens = self.embed(x) + self.pos_embed
        block_iter = iter(self.blocks)
        for stage, pool in zip(self.stages_spec, self.pools):
            for _ in range(stage.depth):
                tokens = next(block_iter)(tokens)
            if pool is not None:
                tokens = pool(tokens)
        feats = self.norm(tokens).mean(axis=1)
        return self.head(feats)


def build_levit(config: ModelConfig, patch_dim, num_classes, seed=0):
    if len(config.sim_stages) < 2:
        raise ValueError(f"{config.name} is single-stage; use build_vit instead")
    return LeViT(
        patch_dim=patch_dim,
        num_classes=num_classes,
        stages=config.sim_stages,
        mlp_ratio=config.mlp_ratio,
        seed=seed,
    )
