"""Deterministic grid partitioning for multi-host DSE sweeps.

A DSE grid has one canonical linear order (the lexicographic cross-product
walked by :func:`repro.harness.dse.sweep_design_space`), so each point has
one integer index — and that index is a *partition key*: shard ``K/N``
owns exactly the indices ``K-1, K-1+N, K-1+2N, ...``.  The partition is

* **complete and disjoint** — the ``N`` shards tile ``range(size)``
  exactly once, whatever ``size`` is (property-tested);
* **stateless** — any host can compute its own index set from ``(K, N)``
  and the grid alone; no coordinator, queue, or shared lock is needed;
* **strided, not contiguous** — neighbouring grid indices differ in one
  swept value, so evaluation cost varies smoothly along the grid;
  striding deals every shard a representative cross-section instead of
  handing one shard the all-expensive corner of the grid.

Shards are written ``K/N`` with ``K`` in ``1..N`` (the CLI spelling:
``python -m repro dse-shard --shard 2/3``).

**Weighted partitions** let heterogeneous hosts own proportional slices:
with integer weights ``w_1..w_N`` (``--shard K/N@w1,...,wN``, or
``K/N@W`` as shorthand for "this shard weighs ``W``, everyone else 1"),
shard ``K`` owns the grid indices whose residue modulo ``sum(w)`` falls
in its contiguous block of ``w_K`` residues.  A 64-core box declared at
weight 4 owns four grid points for every one a laptop owns, the tiling
stays complete, disjoint and stateless (property-tested, including
zero-weight shards, which own nothing and act as pure work-stealers),
and all-equal weight vectors normalise to the unweighted strided layout
so uniform studies keep their historical partition byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["ShardSpec"]


@dataclass(frozen=True)
class ShardSpec:
    """One shard of an ``N``-way partition: ``index`` is 1-based.

    ``weights`` — one non-negative integer share per shard — makes the
    partition weight-proportional (``None`` means uniform).  All-equal
    vectors are normalised to ``None`` at construction, so two specs
    that tile identically compare equal and serialise identically.
    """

    index: int
    count: int
    weights: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1, got {self.count}")
        if not 1 <= self.index <= self.count:
            raise ValueError(
                f"shard index must be in 1..{self.count}, got {self.index}"
            )
        if self.weights is not None:
            weights = tuple(self.weights)
            if len(weights) != self.count:
                raise ValueError(
                    f"weights must list one share per shard: got "
                    f"{len(weights)} weights for {self.count} shards"
                )
            for weight in weights:
                if not isinstance(weight, int) or isinstance(weight, bool):
                    raise ValueError(
                        f"shard weights must be integers, got {weight!r}"
                    )
                if weight < 0:
                    raise ValueError(
                        f"shard weights must be non-negative, got {weight}"
                    )
            if sum(weights) == 0:
                raise ValueError("at least one shard weight must be positive")
            # An all-equal vector tiles exactly like the uniform strided
            # partition modulo residue layout; canonicalise it to None so
            # uniform studies keep the historical (and manifest-compatible)
            # K-1 + j*N index sets.
            if len(set(weights)) == 1:
                weights = None
            object.__setattr__(self, "weights", weights)

    @property
    def weight(self) -> int:
        """This shard's share of the grid (1 under a uniform partition)."""
        return 1 if self.weights is None else self.weights[self.index - 1]

    @classmethod
    def parse(cls, text) -> "ShardSpec":
        """Parse the ``K/N[@weights]`` spelling.

        ``"2/3"`` -> shard 2 of 3 (uniform); ``"2/3@4,1,1"`` -> the full
        weight vector; ``"2/3@4"`` -> shorthand for "shard 2 weighs 4,
        the others weigh 1" (every shard of one study must resolve to the
        same vector — the store manifest enforces agreement).
        """
        if isinstance(text, ShardSpec):
            return text
        body, at, weight_spec = str(text).partition("@")
        head, sep, tail = body.partition("/")
        try:
            if not sep:
                raise ValueError
            index, count = int(head), int(tail)
            parts = None
            if at:
                parts = [int(token) for token in weight_spec.split(",")]
        except ValueError:
            raise ValueError(
                f"bad shard spec {text!r}; expected K/N with 1 <= K <= N, "
                "optionally @W (this shard's weight, peers weigh 1) or "
                "@w1,...,wN (the full weight vector), e.g. '2/3', '2/3@4' "
                "or '2/3@4,1,1'"
            ) from None
        weights = None
        if parts is not None:
            if len(parts) == 1 and count > 1:
                weights = tuple(
                    parts[0] if k == index else 1 for k in range(1, count + 1)
                )
            else:
                weights = tuple(parts)
        return cls(index=index, count=count, weights=weights)

    def indices(self, size: int):
        """This shard's grid indices in ``range(size)`` (ascending).

        Uniform shards return the historical stride ``range``; weighted
        shards return a sorted list — the indices whose residue modulo
        ``sum(weights)`` lies in this shard's block of ``weight``
        consecutive residues (so weighted slices stay strided
        cross-sections of the grid, just ``weight`` residues wide).
        """
        if size < 0:
            raise ValueError("grid size must be non-negative")
        if self.weights is None:
            return range(self.index - 1, size, self.count)
        total = sum(self.weights)
        first = sum(self.weights[: self.index - 1])
        own = []
        for residue in range(first, first + self.weight):
            own.extend(range(residue, size, total))
        own.sort()
        return own

    def owns(self, index: int) -> bool:
        """Whether non-negative grid ``index`` is this shard's: the
        residue rule of :meth:`indices`, in O(1) (the caller checks the
        grid's upper bound)."""
        if self.weights is None:
            return index % self.count == self.index - 1
        first = sum(self.weights[: self.index - 1])
        return first <= index % sum(self.weights) < first + self.weight

    def __str__(self):
        base = f"{self.index}/{self.count}"
        if self.weights is None:
            return base
        return base + "@" + ",".join(str(weight) for weight in self.weights)
