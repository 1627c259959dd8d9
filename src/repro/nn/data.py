"""Synthetic vision datasets (ImageNet / Human3.6M substitutes).

The paper trains on ImageNet (classification) and Human3.6M (3-D pose).  We
cannot ship those offline, so this module generates structured synthetic
patch-token data whose optimal attention strategy matches what the paper
observes in real ViTs (Fig. 2 / Fig. 8):

* a small set of *salient patches* carry most of the class signal — the
  analogue of the paper's **global tokens** (columns attended by everyone);
* neighbouring patches are spatially correlated — the analogue of the
  **diagonal** attention concentration between adjacent tokens.

A ViT trained on this data therefore develops attention maps with the same
"global columns + diagonal band" structure the split-and-conquer algorithm
exploits, exercising the real code path end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SyntheticPatchDataset", "SyntheticPoseDataset", "iterate_minibatches"]


@dataclass
class SyntheticPatchDataset:
    """Patch-token classification dataset.

    Parameters
    ----------
    num_classes:
        Number of target classes.
    num_tokens:
        Patch tokens per image (excluding any CLS token the model adds).
    patch_dim:
        Dimensionality of each (pre-embedded) patch vector.
    num_samples:
        Dataset size.
    num_salient:
        How many fixed patch positions carry the global class signal.
    noise:
        Std-dev of additive observation noise.
    locality:
        Strength of correlation between spatially adjacent patches.
    seed:
        RNG seed; datasets are fully deterministic given the seed.
    """

    num_classes: int = 4
    num_tokens: int = 16
    patch_dim: int = 16
    num_samples: int = 512
    num_salient: int = 3
    noise: float = 0.35
    locality: float = 0.6
    seed: int = 0

    x: np.ndarray = field(init=False, repr=False)
    y: np.ndarray = field(init=False, repr=False)
    salient_positions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rng = np.random.default_rng(self.seed)
        # Fixed salient positions, shared across the dataset (global tokens).
        self.salient_positions = rng.choice(
            self.num_tokens, size=self.num_salient, replace=False
        )
        prototypes = rng.standard_normal((self.num_classes, self.patch_dim)) * 1.5
        texture = rng.standard_normal(
            (self.num_classes, self.num_tokens, self.patch_dim)) * 0.4

        self.y = rng.integers(0, self.num_classes, size=self.num_samples)
        base = rng.standard_normal((self.num_samples, self.num_tokens, self.patch_dim))

        # Spatial correlation: blend each token with its neighbours on the grid.
        side = int(round(np.sqrt(self.num_tokens)))
        if side * side == self.num_tokens and self.locality > 0:
            grid = base.reshape(self.num_samples, side, side, self.patch_dim)
            blurred = grid.copy()
            blurred[:, 1:] += self.locality * grid[:, :-1]
            blurred[:, :-1] += self.locality * grid[:, 1:]
            blurred[:, :, 1:] += self.locality * grid[:, :, :-1]
            blurred[:, :, :-1] += self.locality * grid[:, :, 1:]
            base = blurred.reshape(self.num_samples, self.num_tokens, self.patch_dim)

        x = self.noise * base + texture[self.y]
        # Inject the class prototype at the salient (global) positions.
        x[:, self.salient_positions, :] += prototypes[self.y][:, None, :]
        self.x = x

    def split(self, train_fraction=0.8):
        """Deterministic train/test split: ``(x_tr, y_tr, x_te, y_te)``."""
        cut = int(self.num_samples * train_fraction)
        return self.x[:cut], self.y[:cut], self.x[cut:], self.y[cut:]


@dataclass
class SyntheticPoseDataset:
    """Sequence-regression stand-in for Human3.6M (Strided Transformer task).

    Inputs are token sequences of noisy 2-D joint observations; targets are a
    smooth latent trajectory (the "3-D pose") recoverable by attending to
    temporally adjacent frames plus a few anchor frames.
    """

    num_tokens: int = 27
    joint_dim: int = 16
    num_samples: int = 256
    num_anchors: int = 2
    noise: float = 0.3
    seed: int = 0

    x: np.ndarray = field(init=False, repr=False)
    y: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rng = np.random.default_rng(self.seed)
        t = np.linspace(0, 2 * np.pi, self.num_tokens)
        phases = rng.uniform(0, 2 * np.pi, (self.num_samples, self.joint_dim))
        freqs = rng.uniform(0.5, 2.0, (self.num_samples, self.joint_dim))
        latent = np.sin(freqs[:, None, :] * t[None, :, None] + phases[:, None, :])
        self.y = latent
        self.x = latent + self.noise * rng.standard_normal(latent.shape)

    def split(self, train_fraction=0.8):
        cut = int(self.num_samples * train_fraction)
        return self.x[:cut], self.y[:cut], self.x[cut:], self.y[cut:]


def iterate_minibatches(x, y, batch_size, rng=None, shuffle=True):
    """Yield ``(xb, yb)`` minibatches; the last partial batch is included."""
    n = len(x)
    order = np.arange(n)
    if shuffle:
        (rng or np.random.default_rng()).shuffle(order)
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        yield x[idx], y[idx]
