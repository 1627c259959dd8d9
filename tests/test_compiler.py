"""Tests for the compiler pipeline: parser, codegen, functional executor."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attention_oracle import dense_masked_attention_reference
from repro.compiler import (
    Opcode,
    compile_layers,
    execute_attention_layer,
    parse_layers,
)
from repro.sparsity import split_and_conquer, synthetic_vit_attention


def count(program, opcode):
    return sum(inst.opcode is opcode for inst in program.instructions)


@pytest.fixture(scope="module")
def layer_results():
    return [
        split_and_conquer(
            synthetic_vit_attention(48, num_heads=4, seed=s),
            target_sparsity=0.85, theta_d=0.25,
        )
        for s in range(3)
    ]


class TestParser:
    def test_one_config_per_layer(self, layer_results):
        cfgs = parse_layers(layer_results, head_dim=16)
        assert len(cfgs) == 3
        assert [c.layer_index for c in cfgs] == [0, 1, 2]

    def test_nnz_split_matches(self, layer_results):
        cfgs = parse_layers(layer_results, head_dim=16)
        for cfg, res in zip(cfgs, layer_results):
            assert cfg.denser_nnz == sum(p.denser_nnz for p in res.partitions)
            assert cfg.sparser_nnz == sum(p.sparser_nnz for p in res.partitions)

    def test_lines_sum_to_array(self, layer_results):
        for cfg in parse_layers(layer_results, head_dim=16):
            assert cfg.denser_lines + cfg.sparser_lines == 64

    def test_sparsity_property(self, layer_results):
        cfg = parse_layers(layer_results, head_dim=16)[0]
        kept = cfg.denser_nnz + cfg.sparser_nnz
        assert abs(1 - kept / (cfg.num_heads * cfg.num_tokens**2) - 0.85) < 0.03


class TestCodegen:
    def test_program_structure(self, layer_results):
        cfgs = parse_layers(layer_results, head_dim=16)
        prog = compile_layers(cfgs, use_ae=True)
        assert count(prog, Opcode.SDDMM_DENSE) == 3
        assert count(prog, Opcode.SDDMM_SPARSE) == 3
        assert count(prog, Opcode.SOFTMAX) == 3
        assert count(prog, Opcode.SPMM) == 3
        assert count(prog, Opcode.DECODE) == 6  # Q and K per layer
        assert count(prog, Opcode.CONFIGURE) == 6  # inter- and intra-PE modes

    def test_no_decode_without_ae(self, layer_results):
        cfgs = parse_layers(layer_results, head_dim=16)
        prog = compile_layers(cfgs, use_ae=False)
        assert count(prog, Opcode.DECODE) == 0

    def test_pipeline_order_within_layer(self, layer_results):
        cfgs = parse_layers(layer_results[:1], head_dim=16)
        ops = [inst.opcode for inst in compile_layers(cfgs).instructions]
        assert ops.index(Opcode.LOAD_INDEX) < ops.index(Opcode.SDDMM_SPARSE)
        assert ops.index(Opcode.SDDMM_DENSE) < ops.index(Opcode.SOFTMAX)
        assert ops.index(Opcode.SOFTMAX) < ops.index(Opcode.SPMM)
        assert ops.index(Opcode.SPMM) < ops.index(Opcode.STORE)


class TestExecutor:
    def test_matches_dense_reference(self, layer_results, rng):
        res = layer_results[0]
        q, k, v = rng.standard_normal((3, 4, 48, 16))
        out = execute_attention_layer(q, k, v, res)
        ref = dense_masked_attention_reference(q, k, v, res.mask)
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_shape_mismatch_raises(self, layer_results, rng):
        res = layer_results[0]
        q, k, v = rng.standard_normal((3, 4, 32, 16))  # wrong token count
        with pytest.raises(ValueError):
            execute_attention_layer(q, k, v, res)

    def test_custom_scale(self, layer_results, rng):
        res = layer_results[0]
        q, k, v = rng.standard_normal((3, 4, 48, 16))
        out = execute_attention_layer(q, k, v, res, scale=0.1)
        ref = dense_masked_attention_reference(q, k, v, res.mask, scale=0.1)
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_reference_rows_are_distributions(self, layer_results, rng):
        res = layer_results[0]
        q, k, v = rng.standard_normal((3, 4, 48, 16))
        ones = np.ones_like(v)
        out = execute_attention_layer(q, k, ones, res)
        # With V = 1, every output row must be exactly 1 (weights sum to 1).
        np.testing.assert_allclose(out, 1.0, atol=1e-10)

    @given(
        seed=st.integers(min_value=0, max_value=300),
        sparsity=st.floats(min_value=0.5, max_value=0.95),
    )
    @settings(max_examples=15, deadline=None)
    def test_executor_equivalence_property(self, seed, sparsity):
        """The polarized two-engine execution is numerically equivalent to
        dense masked attention for any mask produced by Algorithm 1."""
        rng = np.random.default_rng(seed)
        maps = synthetic_vit_attention(24, num_heads=2, seed=seed)
        res = split_and_conquer(maps, target_sparsity=sparsity, theta_d=0.3)
        q, k, v = rng.standard_normal((3, 2, 24, 8))
        out = execute_attention_layer(q, k, v, res)
        ref = dense_masked_attention_reference(q, k, v, res.mask)
        np.testing.assert_allclose(out, ref, atol=1e-9)
