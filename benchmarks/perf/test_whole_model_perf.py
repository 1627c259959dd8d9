"""Whole-model analytical simulation: batched geometry vs the layer fold.

Smoke mode (plain ``pytest``) runs a small model and only checks that the
batched whole-model results agree bit-for-bit with the per-layer fold;
full mode (``--bench-out``) runs 12-layer DeiT-Base and asserts the
speedup.
"""

import dataclasses

from repro.hw import ViTCoDAccelerator
from repro.perf import benchit, cached_model_workload
from repro.sim import merge_results


def test_whole_model_batched_analytical(bench_recorder, bench_mode):
    """Array-geometry ViTCoDAccelerator vs its per-layer reference fold."""
    full = bench_mode == "full"
    model = "deit-base" if full else "deit-tiny"
    wl = cached_model_workload(model, sparsity=0.9)
    acc = ViTCoDAccelerator()

    def layer_fold():
        """Every layer's and GEMM's report, folded left to right."""
        return merge_results(
            [acc.simulate_attention_layer(layer)
             for layer in wl.attention_layers]
            + [acc.simulate_gemm(gemm,
                                 compress_output=gemm.name.endswith(".qkv"))
               for gemm in wl.linear_layers]
        )

    a = acc.simulate_model(wl)
    b = layer_fold()
    assert dataclasses.astuple(a.latency) == dataclasses.astuple(b.latency)
    assert dataclasses.astuple(a.energy) == dataclasses.astuple(b.energy)

    repeats = 30 if full else 2
    batched = benchit(lambda: acc.simulate_model(wl),
                      name="batched", repeats=repeats, warmup=2)
    loop = benchit(layer_fold, name="per_layer_loop",
                   repeats=max(repeats // 3, 1), warmup=1)
    speedup = loop.best / batched.best
    bench_recorder.record(
        "whole_model_analytical",
        model=model,
        batched=batched.to_dict(),
        per_layer_loop=loop.to_dict(),
        speedup_vs_layer_loop=speedup,
    )
    if full:
        assert speedup >= 1.2, f"batched analytical only {speedup:.1f}x"
