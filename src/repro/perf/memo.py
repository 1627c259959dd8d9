"""Per-instance keyed memoization (dependency-free perf primitive).

:func:`instance_memo` generalises the single-value ``_memoized`` helper
of :mod:`repro.hw.workload`: instead of caching one derived value per
attribute, it caches a *table* of ``key -> value`` on the instance, so a
frozen workload can hold derived geometry per *hardware configuration* —
the cycle simulator's grid-walk geometry, keyed by the configuration
fields it reads, which would otherwise be rebuilt for every design point
when the workload repeats across the grid.

This module deliberately imports nothing from :mod:`repro` (the cycle
simulator imports it while :mod:`repro.perf`'s own ``__init__`` may still
be executing — see the import chain through ``repro.hw.workload``).
"""

from __future__ import annotations

__all__ = ["instance_memo"]


def instance_memo(obj, slot, key, builder):
    """Return ``builder()`` memoized on ``obj`` under ``(slot, key)``.

    The table lives in the instance ``__dict__`` via
    ``object.__setattr__`` — frozen dataclasses stay immutable in their
    *fields* while sharing pure derived data, exactly the convention of
    ``repro.hw.workload._memoized``.

    Builders must be pure functions of ``obj`` and ``key``.  Dict reads
    and writes are atomic under the GIL; two threads racing on a fresh
    key may both build the same value and one write wins, which is
    harmless for pure builders.
    """
    table = obj.__dict__.get(slot)
    if table is None:
        table = {}
        object.__setattr__(obj, slot, table)
    try:
        return table[key]
    except KeyError:
        value = builder()
        table[key] = value
        return value
