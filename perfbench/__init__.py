"""End-to-end and per-layer benchmark of the served and sharded DSE stack.

Run ``python3 perfbench/run.py --help``; ``BENCHMARK.json`` at the
repository root names the workloads and metrics.
"""
