"""§V-B.3 — reconfigurability: one-time compilation, amortized.

Paper: the accelerator adapts to new tasks (different masks / head counts)
through a one-time hardware-compilation pass whose "cost ... is amortized
across the execution lifetime of each task".  This bench measures that cost
against per-inference time and against Sanger's pay-every-input dynamic
prediction.
"""

from repro.baselines import SangerSimulator
from repro.compiler import estimate_compile_cost, parse_layers
from repro.compiler.reconfig import amortized_overhead, break_even_inferences
from repro.hw import ViTCoDAccelerator, attention_workload
from repro.sparsity import split_and_conquer, synthetic_vit_attention

from conftest import print_paper_vs_measured


def test_compile_once_amortizes(benchmark):
    def run():
        results = [
            split_and_conquer(
                synthetic_vit_attention(197, num_heads=12, seed=s),
                target_sparsity=0.9,
            )
            for s in range(12)  # DeiT-Base depth
        ]
        cfgs = parse_layers(results, head_dim=64)
        cost = estimate_compile_cost(cfgs)
        acc = ViTCoDAccelerator()
        workloads = [attention_workload(r.mask, 64, r.theta_d)
                     for r in results]
        inference = sum(
            acc.simulate_attention_layer(w).cycles for w in workloads
        )
        sanger = SangerSimulator()
        prediction = sum(
            sanger.simulate_attention_layer(w).latency.preprocess
            for w in workloads
        )
        return cost, inference, prediction

    cost, inference, prediction = benchmark.pedantic(run, rounds=1,
                                                     iterations=1)
    overhead_100 = amortized_overhead(cost, inference, 100)
    breakeven = break_even_inferences(cost, prediction)
    rows = [
        ("compile cost / inference", "amortized",
         cost.total_cycles / inference),
        ("overhead after 100 inferences", "negligible", overhead_100),
        ("break-even vs Sanger prediction", "few inferences",
         float(breakeven)),
    ]
    print_paper_vs_measured("§V-B.3 reconfigurability", rows)

    # One task compile costs at most a few inferences' worth of cycles...
    assert cost.total_cycles < 10 * inference
    # ...is negligible after 100 inferences...
    assert overhead_100 < 0.05
    # ...and beats per-input dynamic prediction almost immediately.
    assert breakeven <= 5
