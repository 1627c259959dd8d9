"""Tests for the model zoo training loops and attention extraction."""

import numpy as np
import pytest

from repro.models import (
    evaluate_classifier,
    extract_average_attention,
    pretrained,
)
from repro.models.zoo import _ZOO_CACHE


class TestPretrained:
    def test_training_beats_chance(self, tiny_vit):
        # 3 classes -> chance is 1/3; the trained model must do much better.
        assert tiny_vit.test_accuracy > 0.7

    def test_loss_decreases(self, tiny_vit):
        losses = [h["loss"] for h in tiny_vit.history]
        assert losses[-1] < losses[0]

    def test_memoised(self):
        kwargs = dict(num_samples=192, num_classes=3)
        before = len(_ZOO_CACHE)
        a = pretrained("deit-tiny", epochs=3, dataset_kwargs=kwargs)
        after = len(_ZOO_CACHE)
        b = pretrained("deit-tiny", epochs=3, dataset_kwargs=kwargs)
        assert len(_ZOO_CACHE) == after  # second call hit the cache
        # Fresh copies: same weights, distinct objects.
        assert a.model is not b.model
        np.testing.assert_allclose(
            a.model.embed.weight.data, b.model.embed.weight.data
        )

    def test_fresh_copy_isolated(self):
        kwargs = dict(num_samples=192, num_classes=3)
        a = pretrained("deit-tiny", epochs=3, dataset_kwargs=kwargs)
        a.model.embed.weight.data[:] = 0.0
        b = pretrained("deit-tiny", epochs=3, dataset_kwargs=kwargs)
        assert not np.allclose(b.model.embed.weight.data, 0.0)

    def test_levit_trains(self, tiny_levit):
        assert tiny_levit.test_accuracy > 0.6

    def test_pose_model_trains(self):
        res = pretrained("strided-transformer", epochs=4,
                         dataset_kwargs=dict(num_samples=96))
        losses = [h["loss"] for h in res.history]
        assert losses[-1] < losses[0]
        test_losses = [h["test_loss"] for h in res.history]
        assert test_losses[-1] < test_losses[0]

    def test_evaluate_classifier(self, tiny_vit):
        x_tr, y_tr, x_te, y_te = tiny_vit.dataset.split()
        loss, acc = evaluate_classifier(tiny_vit.model, x_te, y_te)
        assert 0.0 <= acc <= 1.0 and loss >= 0.0
        assert acc == pytest.approx(tiny_vit.test_accuracy)


class TestExtraction:
    def test_shapes(self, tiny_vit):
        maps = extract_average_attention(tiny_vit.model,
                                         tiny_vit.dataset.x[:64])
        assert len(maps) == len(tiny_vit.model.blocks)
        n = tiny_vit.model.num_tokens
        for m in maps:
            assert m.shape == (4, n, n)

    def test_rows_are_distributions(self, tiny_vit):
        maps = extract_average_attention(tiny_vit.model,
                                         tiny_vit.dataset.x[:32])
        for m in maps:
            np.testing.assert_allclose(m.sum(axis=-1), 1.0, atol=1e-8)

    def test_recording_flag_restored(self, tiny_vit):
        attns = tiny_vit.model.attention_modules()
        extract_average_attention(tiny_vit.model, tiny_vit.dataset.x[:16])
        assert all(not a.record_attention for a in attns)

    def test_batching_equivalent(self, tiny_vit):
        x = tiny_vit.dataset.x[:48]
        a = extract_average_attention(tiny_vit.model, x, batch_size=16)
        b = extract_average_attention(tiny_vit.model, x, batch_size=48)
        for ma, mb in zip(a, b):
            np.testing.assert_allclose(ma, mb, atol=1e-12)

    def test_empty_input_raises(self, tiny_vit):
        with pytest.raises(ValueError):
            extract_average_attention(tiny_vit.model,
                                      tiny_vit.dataset.x[:0])

    def test_trained_attention_attends_to_salient_patches(self, tiny_vit):
        """The paper's premise: trained ViTs develop global tokens.  Our
        model trained on data with salient patches should attend to the
        corresponding columns more than to average columns."""
        maps = extract_average_attention(tiny_vit.model,
                                         tiny_vit.dataset.x[:128])
        salient_cols = tiny_vit.dataset.salient_positions + 1  # CLS offset
        ratios = []
        for m in maps:
            col_mass = m.sum(axis=(0, 1))
            salient = col_mass[salient_cols].mean()
            other = np.delete(col_mass, salient_cols).mean()
            ratios.append(salient / other)
        # Not every layer specialises, but at least one develops clear
        # global-token columns over the salient patches.
        assert max(ratios) > 1.15
