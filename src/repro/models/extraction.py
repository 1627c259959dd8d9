"""Attention-map extraction — the input side of Algorithm 1.

The paper "extract[s] averaged attention maps by forwarding the pretrained
models on all training samples" (§IV-B).  This module performs exactly that
over a numpy model: run the training set through the model with attention
recording enabled and return per-layer, per-head maps averaged over samples.
"""

from __future__ import annotations

from ..nn.autograd import no_grad

__all__ = ["extract_average_attention"]


def extract_average_attention(model, inputs, batch_size=64):
    """Average attention probabilities over ``inputs``.

    Parameters
    ----------
    model:
        Any model exposing ``attention_modules()`` (ViT / LeViT / Strided).
    inputs:
        Array of shape (num_samples, tokens, patch_dim).
    batch_size:
        Forward-pass batch size.

    Returns
    -------
    list of ndarray
        One array per attention layer, shape (heads, N, N), where N is that
        layer's token count (LeViT stages differ).  Rows are probability
        distributions (softmax outputs averaged over samples).
    """
    attns = model.attention_modules()
    previous_flags = [a.record_attention for a in attns]
    for attn in attns:
        attn.record_attention = True

    sums = [None] * len(attns)
    count = 0
    try:
        with no_grad():
            for start in range(0, len(inputs), batch_size):
                batch = inputs[start : start + batch_size]
                model(batch)
                for i, attn in enumerate(attns):
                    layer_sum = attn.last_attention.sum(axis=0)  # over batch
                    if sums[i] is None:
                        sums[i] = layer_sum
                    else:
                        sums[i] += layer_sum
                count += len(batch)
    finally:
        for attn, flag in zip(attns, previous_flags):
            attn.record_attention = flag

    if count == 0:
        raise ValueError("no input samples provided")
    return [s / count for s in sums]
