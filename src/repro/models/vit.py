"""DeiT-style Vision Transformer (paper Fig. 7) at simulation scale."""

from __future__ import annotations

import numpy as np

from ..nn.autograd import Tensor
from ..nn.modules import Module, Parameter, Linear, LayerNorm, Mlp
from .attention import MultiHeadSelfAttention
from .config import ModelConfig

__all__ = ["TransformerBlock", "VisionTransformer", "build_vit"]


class TransformerBlock(Module):
    """Pre-norm transformer block: LN → MHSA → +res, LN → MLP → +res."""

    def __init__(self, dim, num_heads, mlp_ratio=4.0, rng=None):
        super().__init__()
        self.norm1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, num_heads, rng=rng)
        self.norm2 = LayerNorm(dim)
        self.mlp = Mlp(dim, int(dim * mlp_ratio), rng=rng)

    def forward(self, x):
        x = x + self.attn(self.norm1(x))
        x = x + self.mlp(self.norm2(x))
        return x


class AttentionStack(Module):
    """ViTCoD's hooks on a model whose ``blocks`` are transformer blocks
    (ViT, LeViT and the Strided Transformer alike)."""

    def attention_modules(self):
        return [block.attn for block in self.blocks]

    def set_masks(self, masks):
        """Install per-layer fixed masks (list of (H,N,N) arrays or None)."""
        if len(masks) != len(self.blocks):
            raise ValueError(
                f"expected {len(self.blocks)} masks, got {len(masks)}"
            )
        for block, mask in zip(self.blocks, masks):
            block.attn.set_mask(mask)

    def set_autoencoder(self, factory):
        """Attach an AE module to every attention layer.

        ``factory(num_heads, head_dim) -> Module`` builds one AE per layer
        (the paper inserts one per attention head group, Fig. 10 Step 1).
        """
        for block in self.blocks:
            block.attn.autoencoder = factory(
                block.attn.num_heads, block.attn.head_dim
            )

    def reconstruction_pairs(self):
        """All (original, reconstructed) Q/K pairs from the last forward."""
        pairs = []
        for block in self.blocks:
            pairs.extend(block.attn.last_reconstruction_pairs)
        return pairs


class VisionTransformer(AttentionStack):
    """Patch-token ViT with CLS token and classification head.

    Inputs are pre-extracted patch vectors of shape
    ``(batch, num_patches, patch_dim)`` — the linear patch-embedding step of
    the paper's pipeline is the ``embed`` layer here.
    """

    def __init__(
        self,
        patch_dim,
        num_patches,
        num_classes,
        depth,
        dim,
        num_heads,
        mlp_ratio=4.0,
        seed=0,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.num_patches = num_patches
        self.num_tokens = num_patches + 1  # CLS prepended
        self.dim = dim
        self.embed = Linear(patch_dim, dim, rng=rng)
        self.cls_token = Parameter(rng.standard_normal((1, 1, dim)) * 0.02)
        self.pos_embed = Parameter(
            rng.standard_normal((1, self.num_tokens, dim)) * 0.02
        )
        self.blocks = [
            TransformerBlock(dim, num_heads, mlp_ratio, rng=rng) for _ in range(depth)
        ]
        for i, block in enumerate(self.blocks):
            setattr(self, f"block{i}", block)
        self.norm = LayerNorm(dim)
        self.head = Linear(dim, num_classes, rng=rng)

    def forward_features(self, x):
        if not isinstance(x, Tensor):
            x = Tensor(x)
        batch = x.shape[0]
        tokens = self.embed(x)
        cls = Tensor.concat(
            [self.cls_token] * batch, axis=0
        )  # (B, 1, D) broadcast of the learned token
        tokens = Tensor.concat([cls, tokens], axis=1)
        tokens = tokens + self.pos_embed
        for block in self.blocks:
            tokens = block(tokens)
        return self.norm(tokens)

    def forward(self, x):
        feats = self.forward_features(x)
        return self.head(feats[:, 0, :])


def build_vit(config: ModelConfig, patch_dim, num_classes, seed=0):
    """Construct a sim-scale ViT matching ``config.sim_stages`` (single stage)."""
    if len(config.sim_stages) != 1:
        raise ValueError(f"{config.name} is multi-stage; use build_levit instead")
    stage = config.sim_stages[0]
    return VisionTransformer(
        patch_dim=patch_dim,
        num_patches=stage.num_tokens - 1,
        num_classes=num_classes,
        depth=stage.depth,
        dim=stage.embed_dim,
        num_heads=stage.num_heads,
        mlp_ratio=config.mlp_ratio,
        seed=seed,
    )
