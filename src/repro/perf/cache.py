"""Keyed memoization for expensive, pure workload constructors.

:func:`repro.hw.workload.model_workload` and
:func:`~repro.hw.workload.synthetic_attention_workload` are deterministic
in their full parameter tuple (the synthetic attention maps are seeded), so
their results can be shared freely: the workload dataclasses are frozen and
nothing downstream mutates them.  ``cached_model_workload`` /
``cached_synthetic_attention_workload`` route construction through a
process-wide :class:`KeyedCache`; DSE sweeps, the experiment harness and
the benchmark suite all hit the same entries.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..hw.workload import model_workload, synthetic_attention_workload
from ..models.config import ModelConfig, get_config
from .memo import instance_memo

__all__ = [
    "CacheStats",
    "KeyedCache",
    "instance_memo",
    "workload_cache",
    "cached_synthetic_attention_workload",
    "cached_model_workload",
]


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of one :class:`KeyedCache`."""

    hits: int
    misses: int
    size: int


class KeyedCache:
    """Thread-safe memoization cache keyed by hashable tuples.

    ``maxsize=None`` (the default) means unbounded; otherwise entries are
    evicted least-recently-used.  Builders run outside the lock would risk
    duplicate construction under concurrency; workload construction is
    expensive enough that we instead hold the lock while building — callers
    on other threads for the *same* key (concurrent served jobs) then wait
    and share the result.
    """

    def __init__(self, maxsize=None):
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be None or >= 1")
        self.maxsize = maxsize
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get_or_build(self, key, builder):
        """Return the cached value for ``key``, building it on first use."""
        with self._lock:
            if key in self._entries:
                self._hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            self._misses += 1
            value = builder()
            self._entries[key] = value
            if self.maxsize is not None:
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
            return value

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses,
                              size=len(self._entries))


#: Process-wide cache shared by every ``cached_*`` constructor.
workload_cache = KeyedCache()


def cached_synthetic_attention_workload(num_tokens, num_heads, head_dim,
                                        sparsity=0.9, theta_d=0.25, seed=0,
                                        index_format="csc", reordered=True,
                                        cache: KeyedCache = None):
    """Memoised :func:`~repro.hw.workload.synthetic_attention_workload`."""
    cache = cache if cache is not None else workload_cache
    key = ("synthetic_attention_workload", num_tokens, num_heads, head_dim,
           sparsity, theta_d, seed, index_format, reordered)
    return cache.get_or_build(key, lambda: synthetic_attention_workload(
        num_tokens, num_heads, head_dim, sparsity=sparsity, theta_d=theta_d,
        seed=seed, index_format=index_format, reordered=reordered,
    ))


def cached_model_workload(config, sparsity=0.9, theta_d=0.25, seed=0,
                          index_format="csc", reordered=True,
                          cache: KeyedCache = None):
    """Memoised :func:`~repro.hw.workload.model_workload`.

    ``config`` may be a :class:`~repro.models.config.ModelConfig` or a
    registry name (``"deit-base"``).
    """
    if not isinstance(config, ModelConfig):
        config = get_config(config)
    cache = cache if cache is not None else workload_cache
    key = ("model_workload", config, sparsity, theta_d, seed, index_format,
           reordered)
    return cache.get_or_build(key, lambda: model_workload(
        config, sparsity=sparsity, theta_d=theta_d, seed=seed,
        index_format=index_format, reordered=reordered,
    ))
