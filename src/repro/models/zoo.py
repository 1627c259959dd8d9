"""Model zoo: build and train "pretrained" sim-scale models.

The paper starts from ImageNet-pretrained DeiT/LeViT checkpoints.  Our
offline substitute trains the sim-scale models from scratch on the synthetic
datasets (deterministically, given a seed) and memoises the result so tests,
examples and benchmarks share one training run per model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..nn import functional as F
from ..nn.autograd import no_grad
from ..nn.data import SyntheticPatchDataset, SyntheticPoseDataset, iterate_minibatches
from ..nn.optim import Adam
from .config import ModelConfig, get_config
from .levit import build_levit
from .strided import build_strided
from .vit import build_vit

__all__ = [
    "TrainResult",
    "train_classifier",
    "train_pose_model",
    "pretrained",
    "evaluate_classifier",
    "evaluate_pose",
]

_ZOO_CACHE: Dict[tuple, "TrainResult"] = {}


@dataclass
class TrainResult:
    """A trained model plus its data and training history."""

    model: object
    config: ModelConfig
    dataset: object
    history: List[dict] = field(default_factory=list)
    test_accuracy: float = 0.0
    test_loss: float = 0.0


def evaluate_classifier(model, x, y, batch_size=128):
    """Return (mean CE loss, top-1 accuracy) on (x, y)."""
    losses, correct, total = [], 0, 0
    with no_grad():
        for start in range(0, len(x), batch_size):
            xb, yb = x[start : start + batch_size], y[start : start + batch_size]
            logits = model(xb)
            losses.append(F.cross_entropy(logits, yb).item() * len(xb))
            correct += int((logits.data.argmax(axis=-1) == yb).sum())
            total += len(xb)
    return sum(losses) / total, correct / total


def evaluate_pose(model, x, y, batch_size=128):
    """Return mean per-joint error (MSE) on the pose task."""
    losses, total = [], 0
    with no_grad():
        for start in range(0, len(x), batch_size):
            xb, yb = x[start : start + batch_size], y[start : start + batch_size]
            pred = model(xb)
            losses.append(float(((pred.data - yb) ** 2).mean()) * len(xb))
            total += len(xb)
    return sum(losses) / total


def train_classifier(
    model,
    dataset: SyntheticPatchDataset,
    epochs=8,
    lr=3e-3,
    batch_size=64,
    weight_decay=1e-4,
    seed=0,
    extra_loss_fn=None,
):
    """Train a classifier; returns a list of per-epoch history dicts.

    ``extra_loss_fn(model) -> Tensor`` adds an auxiliary term (used for the
    AE reconstruction loss in the joint finetuning of Eq. 2).
    """
    rng = np.random.default_rng(seed)
    x_tr, y_tr, x_te, y_te = dataset.split()
    optimizer = Adam(model.parameters(), lr=lr, weight_decay=weight_decay)
    history = []
    for epoch in range(epochs):
        model.train()
        epoch_losses = []
        recon_losses = []
        for xb, yb in iterate_minibatches(x_tr, y_tr, batch_size, rng=rng):
            logits = model(xb)
            loss = F.cross_entropy(logits, yb)
            if extra_loss_fn is not None:
                extra = extra_loss_fn(model)
                recon_losses.append(extra.item())
                loss = loss + extra
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_losses.append(loss.item())
        model.eval()
        test_loss, test_acc = evaluate_classifier(model, x_te, y_te)
        history.append(
            {
                "epoch": epoch,
                "loss": float(np.mean(epoch_losses)),
                "recon_loss": float(np.mean(recon_losses)) if recon_losses else 0.0,
                "test_loss": test_loss,
                "test_accuracy": test_acc,
            }
        )
    return history


def train_pose_model(model, dataset: SyntheticPoseDataset, epochs=8, lr=1e-3,
                     batch_size=32, seed=0):
    rng = np.random.default_rng(seed)
    x_tr, y_tr, x_te, y_te = dataset.split()
    optimizer = Adam(model.parameters(), lr=lr)
    history = []
    for epoch in range(epochs):
        model.train()
        epoch_losses = []
        for xb, yb in iterate_minibatches(x_tr, y_tr, batch_size, rng=rng):
            pred = model(xb)
            loss = F.mse_loss(pred, yb)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_losses.append(loss.item())
        model.eval()
        history.append(
            {
                "epoch": epoch,
                "loss": float(np.mean(epoch_losses)),
                "test_loss": evaluate_pose(model, x_te, y_te),
            }
        )
    return history


def _rebuild_like(result: TrainResult, seed):
    """Fresh model instance with the trained weights loaded."""
    config = result.config
    dataset = result.dataset
    if config.task == "pose":
        model = build_strided(config, joint_dim=dataset.joint_dim, seed=seed)
    elif config.family == "deit":
        model = build_vit(config, patch_dim=dataset.patch_dim,
                          num_classes=dataset.num_classes, seed=seed)
    else:
        model = build_levit(config, patch_dim=dataset.patch_dim,
                            num_classes=dataset.num_classes, seed=seed)
    model.load_state_dict(result.model.state_dict())
    return TrainResult(
        model=model,
        config=config,
        dataset=dataset,
        history=list(result.history),
        test_accuracy=result.test_accuracy,
        test_loss=result.test_loss,
    )


def pretrained(name, seed=0, epochs=8, dataset_kwargs=None, fresh_copy=True):
    """Return a trained :class:`TrainResult` for model ``name``.

    Training is memoised per (name, seed, epochs, dataset); by default each
    call returns a *fresh model copy* loaded with the cached weights so
    callers (e.g. the ViTCoD pipeline) can mutate their model freely.
    Pass ``fresh_copy=False`` to share the cached instance.
    """
    key = (name, seed, epochs, tuple(sorted((dataset_kwargs or {}).items())))
    if key in _ZOO_CACHE:
        cached = _ZOO_CACHE[key]
        return _rebuild_like(cached, seed) if fresh_copy else cached

    config = get_config(name)
    kwargs = dict(dataset_kwargs or {})
    if config.task == "pose":
        stage = config.sim_stages[0]
        dataset = SyntheticPoseDataset(
            num_tokens=stage.num_tokens, seed=seed, **kwargs
        )
        model = build_strided(config, joint_dim=dataset.joint_dim, seed=seed)
        history = train_pose_model(model, dataset, epochs=epochs, seed=seed)
        result = TrainResult(
            model=model,
            config=config,
            dataset=dataset,
            history=history,
            test_loss=history[-1]["test_loss"],
        )
    else:
        first = config.sim_stages[0]
        num_patches = (
            first.num_tokens - 1 if config.family == "deit" else first.num_tokens
        )
        dataset = SyntheticPatchDataset(num_tokens=num_patches, seed=seed, **kwargs)
        if config.family == "deit":
            model = build_vit(
                config, patch_dim=dataset.patch_dim,
                num_classes=dataset.num_classes, seed=seed,
            )
        else:
            model = build_levit(
                config, patch_dim=dataset.patch_dim,
                num_classes=dataset.num_classes, seed=seed,
            )
        history = train_classifier(model, dataset, epochs=epochs, seed=seed)
        _, _, x_te, y_te = dataset.split()
        test_loss, test_acc = evaluate_classifier(model, x_te, y_te)
        result = TrainResult(
            model=model,
            config=config,
            dataset=dataset,
            history=history,
            test_accuracy=test_acc,
            test_loss=test_loss,
        )

    _ZOO_CACHE[key] = result
    return _rebuild_like(result, seed) if fresh_copy else result
