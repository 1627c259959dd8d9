"""Performance layer: workload memoization and timing utilities.

Workload construction (split-and-conquer mask generation) is the single
most expensive step in the repo's hot paths — a DSE sweep or the benchmark
suite would otherwise re-polarize identical masks hundreds of times.  This
package provides a process-wide keyed cache over the pure workload
constructors plus the small timing helpers the ``benchmarks/perf``
microbenchmarks are built on.
"""

from .cache import (
    CacheStats,
    KeyedCache,
    cached_model_workload,
    instance_memo,
    cached_synthetic_attention_workload,
    workload_cache,
)
from .timing import BenchResult, Timer, benchit

__all__ = [
    "CacheStats",
    "KeyedCache",
    "instance_memo",
    "cached_model_workload",
    "cached_synthetic_attention_workload",
    "workload_cache",
    "BenchResult",
    "Timer",
    "benchit",
]
