"""Loss functions and stateless helpers used by the ViTCoD training loops."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor

__all__ = [
    "cross_entropy",
    "mse_loss",
    "l1_loss",
    "reconstruction_loss",
]


def cross_entropy(logits, targets):
    """Mean cross-entropy between ``logits`` (N, C) and integer ``targets`` (N,).

    This is the ``L_CE`` term of the paper's joint objective (Eq. 2).
    """
    targets = np.asarray(targets, dtype=np.int64)
    log_probs = logits.log_softmax(axis=-1)
    n = log_probs.shape[0]
    picked = log_probs[np.arange(n), targets]
    return -picked.mean()


def mse_loss(pred, target):
    diff = pred - _detach_if_tensor(target)
    return (diff * diff).mean()


def l1_loss(pred, target):
    diff = pred - _detach_if_tensor(target)
    return diff.abs().mean()


def reconstruction_loss(original, reconstructed):
    """``||Q - Q'||`` reconstruction term of Eq. 2.

    The paper writes an L0 norm; as in the authors' released code the
    practical, differentiable surrogate is an L1/MSE penalty — we use L1,
    which drives the element-wise discrepancy toward exact zeros.
    """
    return l1_loss(reconstructed, original.detach())


def _detach_if_tensor(value):
    if isinstance(value, Tensor):
        return value.detach()
    return Tensor(np.asarray(value, dtype=np.float64))
