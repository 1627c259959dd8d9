"""Dense masked attention: the oracle for the functional executor.

:func:`repro.compiler.execute_attention_layer` runs a layer the way the
two engines do (reordered denser block, CSC walk of the sparser
remainder); its output must match this one-einsum reference to
floating-point tolerance.
"""

import numpy as np


def dense_masked_attention_reference(q, k, v, mask, scale=None):
    """Reference: softmax over kept entries of (Q·Kᵀ)·scale, then ·V.

    Shapes: q/k/v are (H, N, dk), mask is (H, N, N) boolean.
    """
    q, k, v = (np.asarray(x, dtype=np.float64) for x in (q, k, v))
    mask = np.asarray(mask, dtype=bool)
    dk = q.shape[-1]
    scale = scale if scale is not None else 1.0 / np.sqrt(dk)
    scores = np.einsum("hnd,hmd->hnm", q, k) * scale
    scores = np.where(mask, scores, -np.inf)
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    weights = np.where(mask, weights, 0.0)
    weights /= weights.sum(axis=-1, keepdims=True)
    return np.einsum("hnm,hmd->hnd", weights, v)
