"""Workload descriptions consumed by the accelerator and baseline simulators.

An :class:`AttentionWorkload` captures one attention layer's polarized
sparsity structure (per-head global-token counts and non-zero counts) plus
shape metadata; a :class:`ModelWorkload` bundles all layers of a model with
its dense (QKV projection / MLP) GEMMs for end-to-end simulation.

**From map to workload.**  A synthetic layer's build holds at most two
layer-wide float64 arrays: the generated map, which
:func:`~repro.sparsity.prune_layer` normalises in place into row
probabilities, and the one cumulative ranking that θp's bisection reads;
each head's mask then comes from that head's own sort.
:func:`attention_workload` reads every :class:`HeadWorkload` field off
the (H, N, N) boolean mask, all heads at once: the column counts give
each head's global tokens (more than θd non-zeros) and their stable
permutation (global tokens first, each group in token order), the denser
and sparser non-zeros and the sparser column counts; the CSC (or, for the
format ablation, COO) index bytes follow from those counts; and the band
locality gathers only the band around the reordered diagonal, through
the permutation.  No head's reordered N×N mask or sparse-format object
is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..models.config import ModelConfig
from ..sparsity.pruning import prune_layer
from ..sparsity.patterns import synthetic_vit_attention

__all__ = ["HeadWorkload", "HeadStatArrays", "AttentionWorkload",
           "GemmWorkload", "ModelWorkload",
           "attention_workload", "dense_attention_workload",
           "synthetic_attention_workload", "model_workload"]


def _memoized(obj, attr, builder):
    """Cache ``builder()`` on a frozen dataclass instance.

    The workload dataclasses are frozen (value semantics, shareable across
    threads and the process-wide :mod:`repro.perf` cache), but their derived
    geometry arrays are pure functions of the fields, so stashing them in
    ``__dict__`` via ``object.__setattr__`` preserves immutability of the
    *fields* while letting every simulator share one set of arrays.
    """
    try:
        return obj.__dict__[attr]
    except KeyError:
        value = builder()
        object.__setattr__(obj, attr, value)
        return value


@dataclass(frozen=True)
class HeadWorkload:
    """Polarized sparsity statistics for one attention head.

    ``sparser_locality`` is the fraction of sparser-region non-zeros lying in
    a narrow band around the diagonal after reordering: those enjoy streaming
    Q locality (adjacent columns need adjacent Q rows), while the remainder
    triggers scattered per-token Q fetches from DRAM.
    """

    num_tokens: int
    head_dim: int
    num_global_tokens: int
    denser_nnz: int
    sparser_nnz: int
    sparser_index_bytes: int
    sparser_locality: float = 1.0
    sparser_column_nnz: np.ndarray = field(repr=False, default=None)

    def column_nnz(self):
        """Products per sparser column: ``sparser_column_nnz``, or for a
        head built without it, ``sparser_nnz`` spread over the sparser
        columns, the first ``nnz % cols`` carrying one extra product (the
        job stream and :meth:`AttentionWorkload.column_cv` both read this,
        so the load-imbalance metric matches the simulated jobs)."""
        if self.sparser_column_nnz is not None:
            return self.sparser_column_nnz
        cols = self.num_tokens - self.num_global_tokens
        if cols <= 0:
            return np.zeros(0, dtype=np.int64)
        per, rem = divmod(int(self.sparser_nnz), cols)
        counts = np.full(cols, per, dtype=np.int64)
        counts[:rem] += 1
        return counts


@dataclass(frozen=True)
class HeadStatArrays:
    """Per-head statistics of one layer as parallel int64/float64 arrays.

    Built once per :class:`AttentionWorkload` (see
    :meth:`AttentionWorkload.head_stats`) so simulators can replace their
    per-head Python walks with array reductions.
    """

    tokens: np.ndarray
    global_tokens: np.ndarray
    denser_nnz: np.ndarray
    sparser_nnz: np.ndarray
    index_bytes: np.ndarray
    head_dim: np.ndarray
    locality: np.ndarray


@dataclass(frozen=True)
class AttentionWorkload:
    """One attention layer: shapes plus per-head polarized statistics.

    ``streaming_fallback`` records whether the mask has been reordered into
    the polarized layout: only then can the scheduler fall back from
    scattered per-token fetches to an extra sequential stream (the global
    columns are out of the way and the remainder is band-ordered).  The
    pruning-only ablation sets it False.
    """

    num_tokens: int
    num_heads: int
    head_dim: int
    heads: Sequence[HeadWorkload]
    streaming_fallback: bool = True

    @property
    def embed_dim(self):
        return self.num_heads * self.head_dim

    # ------------------------------------------------------------------
    # Derived geometry arrays (built once, shared by every simulator)
    # ------------------------------------------------------------------
    def head_stats(self) -> HeadStatArrays:
        """Per-head statistics as parallel arrays (cached on the workload)."""
        return _memoized(self, "_head_stats", self._build_head_stats)

    def _build_head_stats(self):
        heads = self.heads
        return HeadStatArrays(
            tokens=np.array([h.num_tokens for h in heads], dtype=np.int64),
            global_tokens=np.array(
                [h.num_global_tokens for h in heads], dtype=np.int64
            ),
            denser_nnz=np.array(
                [h.denser_nnz for h in heads], dtype=np.int64
            ),
            sparser_nnz=np.array(
                [h.sparser_nnz for h in heads], dtype=np.int64
            ),
            index_bytes=np.array(
                [h.sparser_index_bytes for h in heads], dtype=np.int64
            ),
            head_dim=np.array([h.head_dim for h in heads], dtype=np.int64),
            locality=np.array(
                [h.sparser_locality for h in heads], dtype=np.float64
            ),
        )

    def denser_job_products(self) -> np.ndarray:
        """Per-column SDDMM products of the denser engine's job stream:
        every global-token column carries ``num_tokens`` products (cached)."""
        return _memoized(self, "_denser_job_products", self._build_denser_jobs)

    def _build_denser_jobs(self):
        stats = self.head_stats()
        return np.repeat(stats.tokens, stats.global_tokens)

    def sparser_job_products(self) -> np.ndarray:
        """Per-column products of the sparser engine's job stream, in head
        order with empty columns dropped (cached).  Heads without explicit
        per-column counts fall back to :meth:`HeadWorkload.column_nnz`'s
        even spread."""
        return _memoized(self, "_sparser_job_products", self._build_sparser_jobs)

    def _build_sparser_jobs(self):
        parts = []
        for head in self.heads:
            parts.append(np.asarray(head.column_nnz(), dtype=np.int64))
        if not parts:
            return np.zeros(0, dtype=np.int64)
        merged = np.concatenate(parts)
        return merged[merged > 0]

    @property
    def total_nnz(self):
        stats = self.head_stats()
        return int((stats.denser_nnz + stats.sparser_nnz).sum())

    @property
    def sparsity(self):
        return 1.0 - self.total_nnz / (self.num_heads * self.num_tokens**2)

    @property
    def dense_sddmm_macs(self):
        return self.num_heads * self.num_tokens**2 * self.head_dim

    @property
    def dense_spmm_macs(self):
        return self.dense_sddmm_macs

    @property
    def sddmm_macs(self):
        stats = self.head_stats()
        products = stats.global_tokens * stats.tokens + stats.sparser_nnz
        return int((products * stats.head_dim).sum())

    @property
    def spmm_macs(self):
        stats = self.head_stats()
        return int(
            ((stats.denser_nnz + stats.sparser_nnz) * stats.head_dim).sum()
        )

    def column_cv(self):
        """Coefficient of variation of per-column SDDMM products when the
        whole mask is processed by ONE engine (global-token columns carry
        ``num_tokens`` products each, sparser columns their nnz).

        This is the temporal load imbalance the two-pronged split removes:
        a single K-stationary engine alternates between full columns and
        nearly-empty ones, leaving MAC lines idle (§III-A / §V-A)."""
        products = []
        for head in self.heads:
            products.extend([head.num_tokens] * head.num_global_tokens)
            products.extend(int(x) for x in head.column_nnz())
        arr = np.asarray([p for p in products if p > 0], dtype=np.float64)
        if arr.size == 0 or arr.mean() == 0:
            return 0.0
        return float(arr.std() / arr.mean())

    @property
    def scattered_nnz(self):
        """Sparser non-zeros without streaming locality (scattered fetches)."""
        stats = self.head_stats()
        # np.round matches builtins.round (half-to-even) on float64.
        scattered = np.round(stats.sparser_nnz * (1.0 - stats.locality))
        return int(scattered.astype(np.int64).sum())

    def index_bytes(self):
        return int(self.head_stats().index_bytes.sum())


@dataclass(frozen=True)
class GemmWorkload:
    """Dense GEMM: (m × k) · (k × n) with resident weights of k·n elements."""

    name: str
    m: int
    k: int
    n: int

    @property
    def macs(self):
        return self.m * self.k * self.n

    def weight_bytes(self, bytes_per_element):
        return self.k * self.n * bytes_per_element


@dataclass(frozen=True)
class ModelWorkload:
    """All layers of one model, ready for end-to-end simulation."""

    name: str
    attention_layers: Sequence[AttentionWorkload]
    linear_layers: Sequence[GemmWorkload]

    @property
    def linear_macs(self):
        return sum(g.macs for g in self.linear_layers)

    @property
    def mean_sparsity(self):
        return float(np.mean([l.sparsity for l in self.attention_layers]))


def _band_nnz(mask, order, num_global):
    """Per head, the sparser non-zeros within the Q row cache's reach of
    the diagonal once the head is reordered.

    The reach is ``max(2, N // 24)`` tokens.  Only the band is gathered:
    for every reordered column ``p`` past the head's global tokens and
    every reordered row ``p + d`` with ``|d| <= reach``, the mask entry of
    the two tokens ``order`` puts there.
    """
    num_heads, n = order.shape
    reach = max(2, n // 24)
    positions = np.arange(n)
    rows = positions[:, None] + np.arange(-reach, reach + 1)
    inside = (rows >= 0) & (rows < n)
    band = mask[np.arange(num_heads)[:, None, None],
                order[:, np.clip(rows, 0, n - 1)], order[:, :, None]]
    band &= inside
    band &= positions[:, None] >= num_global[:, None, None]
    return band.sum(axis=(1, 2))


def attention_workload(mask, head_dim, theta_d, index_format="csc",
                       reordered=True):
    """Build an :class:`AttentionWorkload` from one layer's (H, N, N) mask.

    A head's global tokens are its columns holding more than ``theta_d``
    non-zeros (a count, or if < 1 a fraction of N); reordering moves them
    first.  ``reordered=False`` models the pruning-only ablation (§VI-C):
    the same mask without token reordering — no denser block (Ngt = 0),
    lower streaming locality, the whole mask treated as the sparser
    workload.  ``index_format`` is ``"csc"`` (column pointers plus a row
    index per non-zero) or ``"coo"`` (two coordinates per non-zero); a
    row index takes two bytes past 256 tokens.
    """
    if index_format not in ("csc", "coo"):
        raise ValueError(f"unknown index format {index_format!r}")
    mask = np.asarray(mask, dtype=bool)
    num_heads, n = mask.shape[0], mask.shape[-1]
    column_nnz = mask.sum(axis=1)
    if reordered:
        is_global = column_nnz > (theta_d if theta_d >= 1 else theta_d * n)
    else:
        is_global = np.zeros(column_nnz.shape, dtype=bool)
    # Each head's token order: global tokens first, both groups stable.
    order = np.argsort(~is_global, axis=-1, kind="stable")
    num_global = is_global.sum(axis=-1)
    denser_nnz = np.where(is_global, column_nnz, 0).sum(axis=-1)
    sparser_nnz = column_nnz.sum(axis=-1) - denser_nnz
    row_bytes = 2 if n > 256 else 1
    if index_format == "csc":
        index_bytes = (n - num_global + 1) * 4 + sparser_nnz * row_bytes
    else:
        index_bytes = 2 * sparser_nnz * row_bytes
    band_nnz = _band_nnz(mask, order, num_global)
    locality = np.where(sparser_nnz > 0,
                        band_nnz / np.maximum(sparser_nnz, 1), 1.0)
    heads = [
        HeadWorkload(
            num_tokens=n,
            head_dim=head_dim,
            num_global_tokens=ngt,
            denser_nnz=denser,
            sparser_nnz=sparser,
            sparser_index_bytes=index,
            sparser_locality=local,
            sparser_column_nnz=counts[~glob],
        )
        for ngt, denser, sparser, index, local, counts, glob in zip(
            num_global.tolist(), denser_nnz.tolist(), sparser_nnz.tolist(),
            index_bytes.tolist(), locality.tolist(), column_nnz, is_global)
    ]
    return AttentionWorkload(
        num_tokens=n,
        num_heads=num_heads,
        head_dim=head_dim,
        heads=heads,
        streaming_fallback=reordered,
    )


def dense_attention_workload(num_tokens, num_heads, head_dim):
    """Fully dense attention (the unpruned baseline / reorder-only point).

    Modeled as one all-dense "denser" block: every column is a global token,
    so streaming is perfectly regular."""
    heads = [
        HeadWorkload(
            num_tokens=num_tokens,
            head_dim=head_dim,
            num_global_tokens=num_tokens,
            denser_nnz=num_tokens * num_tokens,
            sparser_nnz=0,
            sparser_index_bytes=0,
            sparser_locality=1.0,
        )
        for _ in range(num_heads)
    ]
    return AttentionWorkload(
        num_tokens=num_tokens, num_heads=num_heads, head_dim=head_dim, heads=heads,
    )


def synthetic_attention_workload(num_tokens, num_heads, head_dim,
                                 sparsity=0.9, theta_d=0.25, seed=0,
                                 index_format="csc", reordered=True):
    """Paper-scale workload from a synthetic ViT attention map.

    ``sparsity=None`` returns the fully dense workload.
    """
    if sparsity is None:
        return dense_attention_workload(num_tokens, num_heads, head_dim)
    maps = synthetic_vit_attention(num_tokens, num_heads=num_heads, seed=seed)
    return attention_workload(prune_layer(maps, sparsity), head_dim, theta_d,
                              index_format=index_format, reordered=reordered)


def model_workload(config: ModelConfig, sparsity=0.9, theta_d=0.25, seed=0,
                   index_format="csc", reordered=True):
    """Full paper-scale workload for one model config.

    Attention masks come from per-layer synthetic ViT attention maps (seeded
    by layer so per-layer/head variation is present); dense GEMMs cover QKV
    generation, the output projection, and both MLP layers.
    """
    attention_layers = []
    linear_layers = []
    layer_index = 0
    for stage in config.paper_stages:
        n, h, dk, d = stage.num_tokens, stage.num_heads, stage.head_dim, stage.embed_dim
        hidden = int(d * config.mlp_ratio)
        for _ in range(stage.depth):
            attention_layers.append(
                synthetic_attention_workload(
                    n, h, dk, sparsity=sparsity, theta_d=theta_d,
                    seed=seed + 101 * layer_index, index_format=index_format,
                    reordered=reordered,
                )
            )
            linear_layers.extend(
                [
                    GemmWorkload(f"l{layer_index}.qkv", n, d, 3 * d),
                    GemmWorkload(f"l{layer_index}.proj", n, d, d),
                    GemmWorkload(f"l{layer_index}.fc1", n, d, hidden),
                    GemmWorkload(f"l{layer_index}.fc2", n, hidden, d),
                ]
            )
            layer_index += 1
    return ModelWorkload(
        name=config.name,
        attention_layers=attention_layers,
        linear_layers=linear_layers,
    )
