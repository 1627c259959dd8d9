"""Numpy autograd + NN substrate for the ViTCoD reproduction."""

from .autograd import Tensor, no_grad
from .modules import (
    Module,
    Parameter,
    Linear,
    LayerNorm,
    GELU,
    Mlp,
)
from . import functional
from .optim import Adam
from .data import SyntheticPatchDataset, SyntheticPoseDataset, iterate_minibatches

__all__ = [
    "Tensor",
    "no_grad",
    "Module",
    "Parameter",
    "Linear",
    "LayerNorm",
    "GELU",
    "Mlp",
    "functional",
    "Adam",
    "SyntheticPatchDataset",
    "SyntheticPoseDataset",
    "iterate_minibatches",
]
