"""Joint finetuning of ViT weights and AE modules (Eq. 2, Fig. 9b / Fig. 18).

``L = L_CE + L_Recons`` where the reconstruction term penalises the
discrepancy between the original and the encoded-then-decoded Q/K tensors of
every attention layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


from ..nn import functional as F
from ..models.zoo import train_classifier, evaluate_classifier
from .module import default_ae_factory

__all__ = ["AETrainingResult", "attach_autoencoders", "reconstruction_term",
           "finetune_with_autoencoder"]


@dataclass
class AETrainingResult:
    """Training trajectory of a model with AE modules attached."""

    history: List[dict] = field(default_factory=list)
    baseline_accuracy: float = 0.0
    final_accuracy: float = 0.0

    @property
    def accuracy_drop(self):
        return self.baseline_accuracy - self.final_accuracy

    @property
    def test_losses(self):
        return [h["test_loss"] for h in self.history]

    @property
    def recon_losses(self):
        return [h["recon_loss"] for h in self.history]


def attach_autoencoders(model, compression=0.5, seed=0):
    """Insert an AE module into every attention layer (Fig. 10, Step 1)."""
    model.set_autoencoder(default_ae_factory(compression=compression, seed=seed))
    return model


def reconstruction_term(model, weight=1.0):
    """Sum of L1 reconstruction losses over all recorded Q/K pairs."""
    pairs = model.reconstruction_pairs()
    if not pairs:
        raise RuntimeError(
            "no reconstruction pairs recorded — run a forward pass with AE "
            "modules attached before computing the reconstruction term"
        )
    total = None
    for original, reconstructed in pairs:
        term = F.reconstruction_loss(original, reconstructed)
        total = term if total is None else total + term
    return total * (weight / len(pairs))


def finetune_with_autoencoder(
    model,
    dataset,
    baseline_accuracy,
    compression=0.5,
    epochs=6,
    lr=1e-3,
    recon_weight=1.0,
    seed=0,
):
    """Attach AEs and jointly finetune; returns an :class:`AETrainingResult`.

    The reproduction analogue of the paper's 100-epoch DeiT/LeViT finetune —
    our models and datasets are small, so a handful of epochs reaches the
    recovered plateau visible in Fig. 9b.
    """
    attach_autoencoders(model, compression=compression, seed=seed)
    history = train_classifier(
        model,
        dataset,
        epochs=epochs,
        lr=lr,
        seed=seed,
        extra_loss_fn=lambda m: reconstruction_term(m, weight=recon_weight),
    )
    _, _, x_te, y_te = dataset.split()
    _, final_acc = evaluate_classifier(model, x_te, y_te)
    return AETrainingResult(
        history=history,
        baseline_accuracy=baseline_accuracy,
        final_accuracy=final_acc,
    )
