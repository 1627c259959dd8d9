"""End-to-end integration: trained model → Algorithm 1 → masked model,
functional execution, compiler, and hardware simulation all agree."""

import numpy as np
import pytest

from attention_oracle import dense_masked_attention_reference
from repro.autoencoder import run_vitcod_pipeline
from repro.compiler import (
    Opcode,
    compile_layers,
    execute_attention_layer,
    parse_layers,
)
from repro.hw import ViTCoDAccelerator, attention_workload
from repro.models import extract_average_attention, pretrained
from repro.nn import Tensor, no_grad
from repro.sparsity import split_and_conquer


@pytest.fixture(scope="module")
def pipeline():
    pre = pretrained("deit-tiny", epochs=3,
                     dataset_kwargs=dict(num_samples=192, num_classes=3))
    return pre, run_vitcod_pipeline(
        pre, target_sparsity=0.7, compression=0.5,
        ae_epochs=2, mask_epochs=2, seed=0,
    )


class TestAlgorithmToHardware:
    def test_real_masks_drive_the_simulator(self, pipeline):
        _, result = pipeline
        layer = result.layer_results[0]
        head_dim = result.model.blocks[0].attn.head_dim
        wl = attention_workload(layer.mask, head_dim, layer.theta_d)
        report = ViTCoDAccelerator().simulate_attention_layer(wl)
        assert report.cycles > 0
        assert abs(wl.sparsity - layer.sparsity) < 1e-9

    def test_sparser_masks_simulate_faster(self, pipeline):
        pre, _ = pipeline
        maps = extract_average_attention(pre.model, pre.dataset.x[:64])
        acc = ViTCoDAccelerator(use_ae=False)
        times = []
        for target in (0.5, 0.9):
            res = split_and_conquer(maps[0], target_sparsity=target)
            wl = attention_workload(res.mask, 8, res.theta_d)
            times.append(acc.simulate_attention_layer(wl).cycles)
        assert times[1] < times[0]

    def test_compile_real_model(self, pipeline):
        _, result = pipeline
        head_dim = result.model.blocks[0].attn.head_dim
        cfgs = parse_layers(result.layer_results, head_dim=head_dim)
        prog = compile_layers(cfgs, use_ae=True)
        sparse = [i for i in prog.instructions if i.opcode is Opcode.SDDMM_SPARSE]
        assert len(sparse) == len(result.layer_results)


class TestFunctionalEquivalence:
    def test_executor_matches_model_attention(self, pipeline):
        """Drive the functional executor with the Q/K/V the *trained model*
        actually produces and check it reproduces the model's own masked
        attention output."""
        pre, result = pipeline
        model = result.model
        block = model.blocks[0]
        attn = block.attn
        layer_res = result.layer_results[0]

        x = pre.dataset.x[:2]
        with no_grad():
            feats = model.embed(Tensor(x))
            cls = Tensor.concat([model.cls_token] * 2, axis=0)
            tokens = Tensor.concat([cls, feats], axis=1) + model.pos_embed
            normed = block.norm1(tokens)

            batch, n, _ = normed.shape
            qkv = attn.qkv(normed).reshape(batch, n, 3, attn.num_heads,
                                           attn.head_dim)
            qkv = qkv.transpose(2, 0, 3, 1, 4)
            q, k, v = qkv[0].data, qkv[1].data, qkv[2].data
            if attn.autoencoder is not None:
                q = attn.autoencoder(Tensor(q)).data
                k = attn.autoencoder(Tensor(k)).data

        for b in range(batch):
            out = execute_attention_layer(q[b], k[b], v[b], layer_res)
            ref = dense_masked_attention_reference(q[b], k[b], v[b],
                                                   layer_res.mask)
            np.testing.assert_allclose(out, ref, atol=1e-9)

    def test_masked_model_still_classifies(self, pipeline):
        pre, result = pipeline
        x_tr, y_tr, x_te, y_te = pre.dataset.split()
        with no_grad():
            logits = result.model(x_te)
        acc = float((logits.data.argmax(-1) == y_te).mean())
        assert acc > 0.6  # far above 1/3 chance despite 70% pruning


class TestCrossSubsystemConsistency:
    def test_workload_macs_match_mask_counts(self, pipeline):
        _, result = pipeline
        layer = result.layer_results[0]
        head_dim = result.model.blocks[0].attn.head_dim
        wl = attention_workload(layer.mask, head_dim, layer.theta_d)
        mask_nnz = int(result.model.blocks[0].attn.attention_mask.sum())
        assert wl.total_nnz == mask_nnz
        assert wl.spmm_macs == mask_nnz * head_dim

    def test_report_merging_matches_sum(self, pipeline):
        _, result = pipeline
        head_dim = result.model.blocks[0].attn.head_dim
        acc = ViTCoDAccelerator()
        reports = [
            acc.simulate_attention_layer(
                attention_workload(l.mask, head_dim, l.theta_d))
            for l in result.layer_results
        ]
        merged = reports[0]
        for r in reports[1:]:
            merged = merged.merged(r)
        assert merged.cycles == pytest.approx(sum(r.cycles for r in reports))
        assert merged.energy_pj == pytest.approx(
            sum(r.energy_pj for r in reports)
        )
