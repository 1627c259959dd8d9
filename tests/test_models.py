"""Tests for the model zoo: configs, ViT, LeViT, Strided Transformer."""

import numpy as np
import pytest

from repro.models import (
    NLP_BERT_BASE,
    StageSpec,
    build_levit,
    build_strided,
    build_vit,
    get_config,
)
from repro.models.config import MODEL_REGISTRY


class TestConfigs:
    def test_all_seven_models_present(self):
        expected = {
            "deit-tiny", "deit-small", "deit-base",
            "levit-128", "levit-192", "levit-256",
            "strided-transformer",
        }
        assert set(MODEL_REGISTRY) == expected

    def test_deit_paper_scale(self):
        cfg = get_config("deit-base")
        stage = cfg.paper_stages[0]
        assert (stage.depth, stage.num_heads, stage.embed_dim,
                stage.num_tokens) == (12, 12, 768, 197)
        assert stage.head_dim == 64

    def test_levit_is_pyramidal(self):
        cfg = get_config("levit-128")
        tokens = [s.num_tokens for s in cfg.paper_stages]
        assert tokens == sorted(tokens, reverse=True)
        dims = [s.embed_dim for s in cfg.paper_stages]
        assert dims == sorted(dims)

    def test_unknown_model_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="deit-tiny"):
            get_config("resnet-50")

    def test_lookup_case_insensitive(self):
        assert get_config("DeiT-Base").name == "deit-base"

    def test_stage_divisibility_enforced(self):
        with pytest.raises(ValueError):
            StageSpec(depth=1, num_heads=5, embed_dim=12, num_tokens=4)

    def test_attention_workloads_per_layer(self):
        cfg = get_config("levit-256")
        wls = cfg.paper_attention_workloads()
        assert len(wls) == cfg.paper_num_layers == 12
        assert wls[0] == (196, 4, 64)

    def test_flop_counters_positive_and_ordered(self):
        tiny = get_config("deit-tiny")
        base = get_config("deit-base")
        assert 0 < tiny.paper_attention_flops() < base.paper_attention_flops()

    def test_nlp_config(self):
        assert NLP_BERT_BASE.paper_stages[0].num_tokens == 512


class TestVisionTransformer:
    @pytest.fixture(scope="class")
    def vit(self):
        return build_vit(get_config("deit-tiny"), patch_dim=8, num_classes=3,
                         seed=0)

    def test_forward_shape(self, vit, rng):
        out = vit(rng.standard_normal((4, vit.num_patches, 8)))
        assert out.shape == (4, 3)

    def test_cls_token_prepended(self, vit, rng):
        feats = vit.forward_features(rng.standard_normal((2, vit.num_patches, 8)))
        assert feats.shape[1] == vit.num_patches + 1

    def test_attention_modules_count(self, vit):
        assert len(vit.attention_modules()) == 4

    def test_set_masks_wrong_length(self, vit):
        with pytest.raises(ValueError):
            vit.set_masks([None])

    def test_set_masks_installs(self, vit):
        n = vit.num_tokens
        masks = [np.ones((n, n), dtype=bool)] * 4
        vit.set_masks(masks)
        assert all(b.attn.attention_mask is not None for b in vit.blocks)
        vit.set_masks([None] * 4)

    def test_backward_through_whole_model(self, vit, rng):
        from repro.nn import functional as F
        logits = vit(rng.standard_normal((2, vit.num_patches, 8)))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        loss.backward()
        grads = [p.grad for p in vit.parameters()]
        assert all(g is not None for g in grads)

    def test_deterministic_given_seed(self, rng):
        cfg = get_config("deit-tiny")
        a = build_vit(cfg, patch_dim=8, num_classes=3, seed=5)
        b = build_vit(cfg, patch_dim=8, num_classes=3, seed=5)
        x = rng.standard_normal((1, a.num_patches, 8))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_multistage_config_rejected(self):
        with pytest.raises(ValueError):
            build_vit(get_config("levit-128"), patch_dim=8, num_classes=3)


class TestLeViT:
    @pytest.fixture(scope="class")
    def levit(self):
        return build_levit(get_config("levit-128"), patch_dim=8,
                           num_classes=3, seed=0)

    def test_forward_shape(self, levit, rng):
        n0 = levit.stages_spec[0].num_tokens
        out = levit(rng.standard_normal((2, n0, 8)))
        assert out.shape == (2, 3)

    def test_token_pooling_shrinks(self, levit):
        # 16 tokens -> 4 tokens between stages at sim scale.
        assert levit.stages_spec[0].num_tokens == 16
        assert levit.stages_spec[1].num_tokens == 4

    def test_attention_modules_span_stages(self, levit):
        assert len(levit.attention_modules()) == 4

    def test_single_stage_rejected(self):
        with pytest.raises(ValueError):
            build_levit(get_config("deit-tiny"), patch_dim=8, num_classes=3)

    def test_backward(self, levit, rng):
        n0 = levit.stages_spec[0].num_tokens
        out = levit(rng.standard_normal((1, n0, 8)))
        out.sum().backward()
        assert levit.embed.weight.grad is not None

    def test_token_pool_requires_even_square(self):
        from repro.models.levit import TokenPool
        with pytest.raises(ValueError):
            TokenPool(8, 8, in_tokens=9)  # 3x3 grid: odd side
        with pytest.raises(ValueError):
            TokenPool(8, 8, in_tokens=15)  # not square


class TestStridedTransformer:
    @pytest.fixture(scope="class")
    def strided(self):
        return build_strided(get_config("strided-transformer"), joint_dim=16,
                             seed=0)

    def test_seq_to_seq_shape(self, strided, rng):
        out = strided(rng.standard_normal((2, strided.num_tokens, 16)))
        assert out.shape == (2, strided.num_tokens, 16)

    def test_masks_installable(self, strided):
        n = strided.num_tokens
        strided.set_masks([np.ones((n, n), dtype=bool)] * len(strided.blocks))
        strided.set_masks([None] * len(strided.blocks))
