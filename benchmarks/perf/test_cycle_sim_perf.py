"""Cycle-simulator microbenchmarks: the grid walk vs the reference loop.

The production simulator runs every point as the grid walk at P = 1; the
scalar event loop of ``tests/cycle_reference.py`` is the reference it
is timed against.  Smoke mode (plain ``pytest``) runs small shapes and
only checks that both execute and agree; full mode (``--bench-out``) runs
DeiT-base-scale shapes and asserts the walk's speedup.
"""

import dataclasses
import sys
from pathlib import Path

from repro.hw import CycleAccurateSimulator
from repro.perf import benchit, cached_model_workload, \
    cached_synthetic_attention_workload

# The reference loop is a test oracle; it lives in tests/.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tests"))
from cycle_reference import ReferenceCycleSimulator  # noqa: E402


def test_cycle_sim_layer(bench_recorder, bench_mode):
    """One attention layer at DeiT-base scale (197 tokens × 12 heads)."""
    full = bench_mode == "full"
    tokens, heads, dim = (197, 12, 64) if full else (48, 4, 16)
    wl = cached_synthetic_attention_workload(tokens, heads, dim,
                                             sparsity=0.9, seed=7)
    walk = CycleAccurateSimulator()
    ref = ReferenceCycleSimulator()
    assert dataclasses.astuple(walk.simulate_layer(wl)) == \
        dataclasses.astuple(ref.simulate_layer(wl))

    repeats = 20 if full else 2
    rw = benchit(lambda: walk.simulate_layer(wl), name="walk",
                 repeats=repeats, warmup=1)
    rr = benchit(lambda: ref.simulate_layer(wl), name="reference",
                 repeats=max(repeats // 4, 1), warmup=1)
    speedup = rr.best / rw.best
    bench_recorder.record(
        "cycle_sim_layer",
        shape={"num_tokens": tokens, "num_heads": heads, "head_dim": dim,
               "sparsity": 0.9},
        walk=rw.to_dict(),
        reference=rr.to_dict(),
        speedup_vs_reference=speedup,
    )
    assert rw.best > 0 and rr.best > 0
    if full:
        assert speedup >= 5.0, f"grid walk speedup only {speedup:.1f}x"


def test_cycle_sim_full_model(bench_recorder, bench_mode):
    """One design point: every attention layer of a model through
    ``simulate_attention``."""
    full = bench_mode == "full"
    model = "deit-base" if full else "deit-tiny"
    wl = cached_model_workload(model, sparsity=0.9)
    walk = CycleAccurateSimulator()
    ref = ReferenceCycleSimulator()
    assert dataclasses.astuple(walk.simulate_attention(wl)) == \
        dataclasses.astuple(ref.simulate_attention(wl))

    rw = benchit(lambda: walk.simulate_attention(wl), name="walk",
                 repeats=10 if full else 1, warmup=1)
    rr = benchit(lambda: ref.simulate_attention(wl), name="reference",
                 repeats=3 if full else 1, warmup=0)
    speedup = rr.best / rw.best
    bench_recorder.record(
        "cycle_sim_full_model",
        model=model,
        layers=len(wl.attention_layers),
        walk=rw.to_dict(),
        reference=rr.to_dict(),
        speedup_vs_reference=speedup,
    )
    if full:
        assert speedup >= 5.0, f"grid walk speedup only {speedup:.1f}x"
