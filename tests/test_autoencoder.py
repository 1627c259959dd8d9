"""Tests for the AE module, joint training, and the unified pipeline."""

import numpy as np
import pytest

from repro.autoencoder import (
    HeadAutoEncoder,
    attach_autoencoders,
    default_ae_factory,
    finetune_with_autoencoder,
    reconstruction_term,
    run_vitcod_pipeline,
)
from repro.models import build_vit, get_config, pretrained
from repro.nn import SyntheticPatchDataset, Tensor


class TestHeadAutoEncoder:
    def test_shapes(self, rng):
        ae = HeadAutoEncoder(12, compression=0.5, rng=rng)
        x = Tensor(rng.standard_normal((2, 12, 8, 16)))
        z = ae.encode(x)
        assert z.shape == (2, 6, 8, 16)
        out = ae.decode(z)
        assert out.shape == (2, 12, 8, 16)

    def test_forward_is_decode_encode(self, rng):
        ae = HeadAutoEncoder(6, compression=0.5, rng=rng)
        x = Tensor(rng.standard_normal((6, 4, 8)))
        np.testing.assert_allclose(
            ae(x).data, ae.decode(ae.encode(x)).data
        )

    def test_compression_ratio_rounding(self):
        ae = HeadAutoEncoder(12, compression=0.5)
        assert ae.compressed_heads == 6
        ae3 = HeadAutoEncoder(3, compression=0.5)
        assert ae3.compressed_heads == 2  # round(1.5) = 2

    def test_min_one_compressed_head(self):
        ae = HeadAutoEncoder(4, compression=0.01)
        assert ae.compressed_heads == 1

    def test_invalid_compression(self):
        with pytest.raises(ValueError):
            HeadAutoEncoder(4, compression=0.0)
        with pytest.raises(ValueError):
            HeadAutoEncoder(4, compression=1.5)

    def test_pinv_init_projects(self, rng):
        """Decode∘encode at init is the best rank-Hc projection: applying it
        twice equals applying it once (idempotent)."""
        ae = HeadAutoEncoder(8, compression=0.5, rng=rng)
        x = Tensor(rng.standard_normal((8, 5, 4)))
        once = ae(x).data
        twice = ae(Tensor(once)).data
        np.testing.assert_allclose(once, twice, atol=1e-10)

    def test_redundant_heads_recoverable_at_init(self, rng):
        """If heads truly live in an Hc-dim subspace (the paper's
        hypothesis), the pinv-initialised AE can recover them exactly
        after fitting the encoder to that subspace."""
        coeff = rng.standard_normal((8, 4))  # heads = coeff @ latent
        ae = HeadAutoEncoder(8, compression=0.5)
        ae.enc_weight.data = np.linalg.pinv(coeff).T  # encode -> latent
        ae.dec_weight.data = coeff.T  # decode -> heads
        x_heads = np.einsum("hc,cnd->hnd", coeff,
                            rng.standard_normal((4, 6, 5)))
        out = ae(Tensor(x_heads)).data
        np.testing.assert_allclose(out, x_heads, atol=1e-8)

    def test_factory_seeds_differ_per_layer(self):
        factory = default_ae_factory(seed=0)
        a = factory(4, 8)
        b = factory(4, 8)
        assert not np.allclose(a.enc_weight.data, b.enc_weight.data)


class TestJointTraining:
    @pytest.fixture(scope="class")
    def small_setup(self):
        dataset = SyntheticPatchDataset(num_tokens=16, num_samples=128,
                                        num_classes=3, seed=0)
        model = build_vit(get_config("deit-tiny"), patch_dim=dataset.patch_dim,
                          num_classes=3, seed=0)
        return model, dataset

    def test_reconstruction_term_requires_forward(self, small_setup):
        _, dataset = small_setup
        fresh = build_vit(get_config("deit-tiny"),
                          patch_dim=dataset.patch_dim, num_classes=3)
        attach_autoencoders(fresh, seed=0)
        with pytest.raises(RuntimeError):
            reconstruction_term(fresh)  # no forward pass yet

    def test_reconstruction_term_positive(self, small_setup):
        model, dataset = small_setup
        attach_autoencoders(model, seed=0)
        model(dataset.x[:4])
        term = reconstruction_term(model)
        assert term.item() > 0

    def test_finetune_reduces_recon_loss(self):
        # Fig. 9b: inserting AEs into a *pretrained* model and finetuning
        # jointly drives the reconstruction loss down while accuracy holds.
        pre = pretrained("deit-tiny", epochs=3,
                         dataset_kwargs=dict(num_samples=192, num_classes=3))
        result = finetune_with_autoencoder(
            pre.model, pre.dataset, baseline_accuracy=pre.test_accuracy,
            epochs=3, seed=0,
        )
        assert result.recon_losses[-1] < result.recon_losses[0]
        assert result.final_accuracy >= pre.test_accuracy - 0.1
        assert len(result.history) == 3
        assert [h["epoch"] for h in result.history] == [0, 1, 2]


class TestUnifiedPipeline:
    @pytest.fixture(scope="class")
    def pipeline_result(self):
        pre = pretrained("deit-tiny", epochs=3,
                         dataset_kwargs=dict(num_samples=192, num_classes=3))
        return run_vitcod_pipeline(
            pre, target_sparsity=0.75, compression=0.5,
            ae_epochs=2, mask_epochs=2, seed=0,
        )

    def test_sparsity_achieved(self, pipeline_result):
        assert abs(pipeline_result.achieved_sparsity - 0.75) < 0.05

    def test_masks_installed_and_fixed(self, pipeline_result):
        model = pipeline_result.model
        for block, layer_res in zip(model.blocks,
                                    pipeline_result.layer_results):
            np.testing.assert_array_equal(
                block.attn.attention_mask, layer_res.mask
            )

    def test_accuracy_mostly_restored(self, pipeline_result):
        # Paper claim: <1% drop at high sparsity after finetuning.  Our tiny
        # model on synthetic data should stay within a few points.
        assert pipeline_result.final_accuracy >= (
            pipeline_result.baseline_accuracy - 0.10
        )

    def test_global_tokens_found(self, pipeline_result):
        # The dataset has salient patches; at least some layers should mark
        # global tokens.
        total = sum(int(n.sum()) for n in pipeline_result.num_global_tokens)
        assert total > 0

    def test_histories_recorded(self, pipeline_result):
        assert len(pipeline_result.ae_history) == 2
        assert len(pipeline_result.mask_history) == 2

    def test_sc_only_pipeline_skips_ae(self):
        pre = pretrained("deit-tiny", epochs=3,
                         dataset_kwargs=dict(num_samples=192, num_classes=3))
        result = run_vitcod_pipeline(
            pre, target_sparsity=0.75, compression=None,
            ae_epochs=1, mask_epochs=1, seed=0,
        )
        assert result.ae_history == []
        assert result.compression == 1.0
