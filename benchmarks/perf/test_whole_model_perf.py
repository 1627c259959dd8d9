"""Whole-model analytical simulation: the array walks vs the layer fold.

Smoke mode (plain ``pytest``) runs a small model and only checks that the
walks' whole-model results agree bit-for-bit with the scalar model's
per-layer fold (``tests/analytical_oracle.py``); full mode
(``--bench-out``) runs 12-layer DeiT-Base and asserts the speedup.

The two are timed interleaved, one call of each per round, and the gate
compares their medians, so host drift slows both alike instead of
deciding the ratio.
"""

import dataclasses
import statistics
import sys
import time
from pathlib import Path

from repro.hw import ViTCoDAccelerator
from repro.perf import BenchResult, cached_model_workload

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tests"))
import analytical_oracle  # noqa: E402


def test_whole_model_batched_analytical(bench_recorder, bench_mode):
    """ViTCoDAccelerator's array walks vs the scalar per-layer fold."""
    full = bench_mode == "full"
    model = "deit-base" if full else "deit-tiny"
    wl = cached_model_workload(model, sparsity=0.9)
    acc = ViTCoDAccelerator()

    def layer_fold():
        """Every layer's and GEMM's scalar report, folded left to right."""
        return analytical_oracle.fold(acc, wl, end_to_end=True)

    a = acc.simulate_model(wl)
    b = layer_fold()
    assert dataclasses.astuple(a.latency) == dataclasses.astuple(b.latency)
    assert dataclasses.astuple(a.energy) == dataclasses.astuple(b.energy)

    rounds = 30 if full else 2
    walk_times, fold_times = [], []
    for round_ in range(rounds + 2):  # the first two rounds warm up
        start = time.perf_counter()
        acc.simulate_model(wl)
        middle = time.perf_counter()
        layer_fold()
        end = time.perf_counter()
        if round_ >= 2:
            walk_times.append(middle - start)
            fold_times.append(end - middle)
    batched = BenchResult("batched", walk_times, rounds)
    loop = BenchResult("per_layer_loop", fold_times, rounds)
    speedup = statistics.median(fold_times) / statistics.median(walk_times)
    bench_recorder.record(
        "whole_model_analytical",
        model=model,
        batched=batched.to_dict(),
        per_layer_loop=loop.to_dict(),
        speedup_vs_layer_loop=speedup,
    )
    if full:
        assert speedup >= 1.2, f"batched analytical only {speedup:.1f}x"
