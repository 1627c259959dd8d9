"""The lightweight learnable auto-encoder module (§IV-C, Fig. 9a).

Naively shrinking the Q/K feature dimension would lower-rank the attention
map (``rank(S) ≤ min(rank(Q), rank(K))``) and hurt accuracy.  ViTCoD instead
compresses along the **head** dimension — different heads' Q/K vectors are
redundant — with a tiny linear encoder (e.g. a 6×3 matrix mapping 6 heads to
3) and a matching decoder.  On hardware, encode runs before Q/K are written
off-chip and decode after they are read back, halving attention-input DRAM
traffic at the cost of a small, pipelineable MAC workload.
"""

from __future__ import annotations

import numpy as np

from ..nn.modules import Module, Parameter

__all__ = ["HeadAutoEncoder", "default_ae_factory"]


class HeadAutoEncoder(Module):
    """Linear encoder/decoder pair acting across the attention-head axis.

    Operates on tensors of shape (..., H, N, dk): the head axis is third
    from the end.  ``compression`` is the ratio of compressed to original
    heads (the paper uses 0.5, e.g. 12 → 6 heads).
    """

    def __init__(self, num_heads, compression=0.5, rng=None):
        super().__init__()
        if not 0.0 < compression <= 1.0:
            raise ValueError(f"compression must be in (0, 1], got {compression}")
        self.num_heads = num_heads
        self.compressed_heads = max(1, int(round(num_heads * compression)))
        self.compression = self.compressed_heads / num_heads
        rng = rng or np.random.default_rng()
        bound = np.sqrt(6.0 / (num_heads + self.compressed_heads))
        enc = rng.uniform(-bound, bound, (num_heads, self.compressed_heads))
        # Decoder initialised as the pseudo-inverse of the encoder, so
        # decode∘encode starts as the best rank-Hc projection of head space
        # and finetuning starts from a near-recovered model (Fig. 9b shows
        # the trajectory recovering toward the vanilla accuracy).
        self.enc_weight = Parameter(enc)
        self.dec_weight = Parameter(np.linalg.pinv(enc))

    def encode(self, x):
        """(…, H, N, dk) → (…, Hc, N, dk)."""
        moved = x.swapaxes(-3, -1)  # (..., dk, N, H)
        z = moved @ self.enc_weight  # (..., dk, N, Hc)
        return z.swapaxes(-3, -1)

    def decode(self, z):
        """(…, Hc, N, dk) → (…, H, N, dk)."""
        moved = z.swapaxes(-3, -1)
        out = moved @ self.dec_weight
        return out.swapaxes(-3, -1)

    def forward(self, x):
        return self.decode(self.encode(x))


def default_ae_factory(compression=0.5, seed=0):
    """Factory for :meth:`VisionTransformer.set_autoencoder` — one AE per
    layer, seeded deterministically."""
    counter = {"i": 0}

    def factory(num_heads, head_dim):
        rng = np.random.default_rng(seed + counter["i"])
        counter["i"] += 1
        return HeadAutoEncoder(num_heads, compression=compression, rng=rng)

    return factory
