"""Micro-benchmarks of the reproduction's own hot kernels.

These time the core library primitives (Algorithm 1, the CSC build, the
functional executor, and one full simulator evaluation) with repeated
rounds so `pytest-benchmark` produces meaningful statistics — useful when
optimising the reproduction itself.
"""

import numpy as np
import pytest

from repro.compiler import execute_attention_layer
from repro.formats import CSCMatrix
from repro.hw import ViTCoDAccelerator, attention_workload
from repro.sparsity import (
    prune_attention_map,
    split_and_conquer,
    synthetic_vit_attention,
)


@pytest.fixture(scope="module")
def maps197():
    return synthetic_vit_attention(197, num_heads=12, seed=0)


@pytest.fixture(scope="module")
def result197(maps197):
    return split_and_conquer(maps197, target_sparsity=0.9, theta_d=0.25)


def test_bench_prune_attention_map(benchmark, maps197):
    mask = benchmark(prune_attention_map, maps197, 0.7)
    assert mask.shape == maps197.shape


def test_bench_split_and_conquer(benchmark, maps197):
    result = benchmark(split_and_conquer, maps197, 0.7)
    assert result.num_heads == 12


def test_bench_csc_build(benchmark, result197):
    sparser = result197.partitions[0].sparser_mask
    csc = benchmark(CSCMatrix.from_dense, sparser)
    assert csc.nnz == sparser.sum()


def test_bench_workload_construction(benchmark, result197):
    wl = benchmark(attention_workload, result197.mask, 64,
                   result197.theta_d)
    assert wl.num_tokens == 197


def test_bench_accelerator_layer_sim(benchmark, result197):
    wl = attention_workload(result197.mask, 64, result197.theta_d)
    acc = ViTCoDAccelerator()
    report = benchmark(acc.simulate_attention_layer, wl)
    assert report.cycles > 0


def test_bench_functional_executor(benchmark):
    rng = np.random.default_rng(0)
    maps = synthetic_vit_attention(64, num_heads=4, seed=1)
    result = split_and_conquer(maps, target_sparsity=0.9)
    q, k, v = rng.standard_normal((3, 4, 64, 16))
    out = benchmark(execute_attention_layer, q, k, v, result)
    assert out.shape == (4, 64, 16)
