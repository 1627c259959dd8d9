"""Tests for Algorithm 1's pruning step (repro.sparsity.pruning)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import pruning_oracle as oracle
from repro.dist import workload_fingerprint
from repro.hw.workload import (
    AttentionWorkload,
    HeadWorkload,
    attention_workload,
    model_workload,
)
from repro.models import get_config
from repro.sparsity import (
    mask_sparsity,
    prune_attention_map,
    prune_layer,
    split_and_conquer,
    synthetic_vit_attention,
)


def threshold_for_sparsity(attention_map, target_sparsity):
    """The θp that Algorithm 1's bisection picks for a target sparsity."""
    return split_and_conquer(attention_map, target_sparsity=target_sparsity).theta_p


def random_attention(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n))
    return a / a.sum(axis=-1, keepdims=True)


class TestPruneAttentionMap:
    def test_full_threshold_keeps_everything(self):
        a = random_attention(10)
        mask = prune_attention_map(a, theta_p=1.0)
        assert mask.all()

    def test_tiny_threshold_keeps_top1_per_row(self):
        a = random_attention(12, seed=1)
        mask = prune_attention_map(a, theta_p=1e-9)
        assert (mask.sum(axis=-1) == 1).all()
        # The kept element is the row maximum.
        kept = mask.argmax(axis=-1)
        np.testing.assert_array_equal(kept, a.argmax(axis=-1))

    def test_every_row_nonempty(self):
        a = random_attention(20, seed=2)
        for theta in (0.1, 0.3, 0.5, 0.9):
            mask = prune_attention_map(a, theta)
            assert mask.any(axis=-1).all()

    def test_monotone_in_theta(self):
        a = random_attention(16, seed=3)
        prev = None
        for theta in (0.2, 0.4, 0.6, 0.8, 1.0):
            mask = prune_attention_map(a, theta)
            if prev is not None:
                # Larger theta keeps a superset.
                assert (mask | prev == mask).all()
            prev = mask

    def test_keeps_highest_scores_first(self):
        a = np.array([[0.5, 0.3, 0.15, 0.05]])
        mask = prune_attention_map(a, theta_p=0.8)
        np.testing.assert_array_equal(mask, [[True, True, False, False]])

    def test_threshold_crossing_element_kept(self):
        a = np.array([[0.6, 0.4]])
        # 0.6 >= 0.5 already: only the first element is needed.
        mask = prune_attention_map(a, theta_p=0.5)
        np.testing.assert_array_equal(mask, [[True, False]])

    def test_multi_head_input(self):
        a = np.stack([random_attention(8, s) for s in range(3)])
        mask = prune_attention_map(a, 0.5)
        assert mask.shape == (3, 8, 8)

    def test_min_keep(self):
        a = random_attention(10, seed=4)
        mask = prune_attention_map(a, theta_p=1e-9, min_keep=3)
        assert (mask.sum(axis=-1) == 3).all()

    def test_unnormalised_rows_handled(self):
        a = random_attention(8, seed=5) * 7.3  # rows no longer sum to 1
        mask = prune_attention_map(a, 0.5)
        assert mask.any(axis=-1).all()

    def test_invalid_theta_raises(self):
        a = random_attention(4)
        with pytest.raises(ValueError):
            prune_attention_map(a, 0.0)
        with pytest.raises(ValueError):
            prune_attention_map(a, 1.5)

    def test_invalid_min_keep_raises(self):
        with pytest.raises(ValueError):
            prune_attention_map(random_attention(4), 0.5, min_keep=0)

    def test_wrong_ndim_raises(self):
        with pytest.raises(ValueError):
            prune_attention_map(np.zeros(4), 0.5)


class TestSparsityTargeting:
    def test_threshold_for_sparsity_hits_target(self):
        a = synthetic_vit_attention(96, num_heads=4, seed=0)
        for target in (0.5, 0.7, 0.9):
            theta = threshold_for_sparsity(a, target)
            achieved = mask_sparsity(prune_attention_map(a, theta))
            assert abs(achieved - target) < 0.03

    def test_mask_for_sparsity(self):
        a = synthetic_vit_attention(64, num_heads=2, seed=1)
        mask = split_and_conquer(a, target_sparsity=0.85).mask
        assert abs(mask_sparsity(mask) - 0.85) < 0.03

    def test_zero_sparsity(self):
        a = random_attention(16)
        theta = threshold_for_sparsity(a, 0.0)
        assert mask_sparsity(prune_attention_map(a, theta)) < 0.05

    def test_invalid_target_raises(self):
        with pytest.raises(ValueError):
            threshold_for_sparsity(random_attention(4), 1.0)

    def test_mask_sparsity_values(self):
        assert mask_sparsity(np.ones((4, 4), dtype=bool)) == 0.0
        m = np.zeros((4, 4), dtype=bool)
        m[0, 0] = True
        assert mask_sparsity(m) == pytest.approx(15 / 16)


class TestHypothesisProperties:
    @given(
        n=st.integers(min_value=2, max_value=24),
        theta=st.floats(min_value=0.05, max_value=1.0),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_never_empty_and_mass_covered(self, n, theta, seed):
        a = random_attention(n, seed)
        mask = prune_attention_map(a, theta)
        assert mask.any(axis=-1).all()
        # Kept mass per row reaches theta (up to the crossing element).
        kept_mass = (a * mask).sum(axis=-1)
        assert (kept_mass >= min(theta, 1.0) - 1e-9).all()

    @given(
        n=st.integers(min_value=4, max_value=20),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_kept_entries_dominate_pruned(self, n, seed):
        """Every kept entry in a row is >= every pruned entry (top-k style)."""
        a = random_attention(n, seed)
        mask = prune_attention_map(a, 0.6)
        for i in range(n):
            kept = a[i][mask[i]]
            pruned = a[i][~mask[i]]
            if len(pruned):
                assert kept.min() >= pruned.max() - 1e-12


class TestCallersMapUntouched:
    """Only ``prune_layer`` takes over the map it is given."""

    @pytest.mark.parametrize("shape", [(6, 6), (3, 6, 6)])
    def test_prune_and_split_leave_the_map_as_it_was(self, shape):
        a = np.random.default_rng(0).random(shape) * 3.0  # rows sum to ~9
        before = a.copy()
        prune_attention_map(a, 0.5)
        split_and_conquer(a, theta_p=0.5)
        split_and_conquer(a, target_sparsity=0.5)
        assert a.tobytes() == before.tobytes()

    def test_prune_layer_normalises_its_map_in_place(self):
        a = np.random.default_rng(1).random((2, 6, 6)) * 3.0
        want = split_and_conquer(a, target_sparsity=0.5).mask
        mask = prune_layer(a, 0.5)
        np.testing.assert_array_equal(mask, want)
        np.testing.assert_allclose(a.sum(axis=-1), 1.0)


class TestNonFiniteMaps:
    """NaN and ±inf are rejected before any sort, naming the map's shape."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(4, 4), (2, 4, 4)])
    def test_every_entry_point_rejects(self, bad, shape):
        a = np.full(shape, 0.25)
        a[..., 1, 2] = bad
        message = rf"shape \({', '.join(map(str, shape))}\).*non-finite"
        with pytest.raises(ValueError, match=message):
            prune_attention_map(a, 0.5)
        with pytest.raises(ValueError, match=r"non-finite"):
            split_and_conquer(a, theta_p=0.5)
        with pytest.raises(ValueError, match=r"non-finite"):
            split_and_conquer(a, target_sparsity=0.5)


@st.composite
def attention_maps(draw):
    """2-D or 3-D maps full of ties: integer-valued, negative, constant and
    all-zero rows, and plain floats."""
    n = draw(st.integers(min_value=1, max_value=12))
    heads = draw(st.integers(min_value=1, max_value=3))
    shape = draw(st.sampled_from([(n, n), (heads, n, n)]))
    elements = draw(st.sampled_from([
        st.integers(0, 3).map(float),
        st.integers(-3, 3).map(float),
        st.floats(0.0, 1.0),
        st.floats(-1.0, 1.0),
    ]))
    a = draw(arrays(np.float64, shape, elements=elements))
    constant_rows = draw(arrays(np.bool_, shape[:-1]))
    a[constant_rows] = draw(st.sampled_from([0.0, 0.3, 1.0, -2.0]))
    return a


thetas = st.one_of(st.just(1e-6), st.floats(0.05, 0.95), st.just(1.0))


class TestMatchesArgsortOracle:
    """The one-sort kernel is bit-identical to the stable-argsort kernel."""

    @given(a=attention_maps(), theta=thetas, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_masks(self, a, theta, data):
        min_keep = data.draw(st.integers(1, a.shape[-1] + 1), label="min_keep")
        np.testing.assert_array_equal(
            prune_attention_map(a, theta, min_keep),
            oracle.prune_attention_map(a, theta, min_keep),
        )

    @given(a=attention_maps(), target=st.floats(0.0, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_theta_p(self, a, target):
        assert threshold_for_sparsity(a, target) == oracle.threshold_for_sparsity(
            a, target)

    @given(a=attention_maps(), target=st.floats(0.0, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_split_and_conquer_mask(self, a, target):
        maps = a.reshape((-1,) + a.shape[-2:])
        result = split_and_conquer(maps, target_sparsity=target)
        theta_p = oracle.threshold_for_sparsity(maps, target)
        assert result.theta_p == theta_p
        np.testing.assert_array_equal(
            result.mask, oracle.prune_attention_map(maps, theta_p))

    @pytest.mark.parametrize("tokens,heads,seed", [(197, 12, 0), (49, 8, 5),
                                                   (351, 8, 3), (16, 1, 9)])
    def test_synthetic_maps(self, tokens, heads, seed):
        assert (synthetic_vit_attention(tokens, heads, seed=seed).tobytes()
                == oracle.synthetic_vit_attention(tokens, heads, seed=seed).tobytes())

    @pytest.mark.parametrize("reordered", [True, False])
    @pytest.mark.parametrize("model", ["deit-tiny", "levit-128"])
    def test_model_workload(self, model, reordered):
        config = get_config(model)
        built = model_workload(config, sparsity=0.9, reordered=reordered)
        layers = oracle.oracle_attention_layers(config, sparsity=0.9,
                                                reordered=reordered)
        assert len(built.attention_layers) == len(layers)
        for got, want in zip(built.attention_layers, layers):
            _assert_fields_equal(got, want, AttentionWorkload, skip={"heads"})
            assert len(got.heads) == len(want.heads)
            for got_head, want_head in zip(got.heads, want.heads):
                _assert_fields_equal(got_head, want_head, HeadWorkload)
        assert workload_fingerprint(built) == workload_fingerprint(
            dataclasses.replace(built, attention_layers=layers))


def _assert_fields_equal(got, want, cls, skip=()):
    for field in dataclasses.fields(cls):
        if field.name in skip:
            continue
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert type(a) is type(b), field.name
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


@st.composite
def layer_masks(draw):
    """(H, N, N) masks with the structure Algorithm 1 leaves: random
    scatter, a band around the diagonal and dense (global-token) columns;
    N reaches past 72 (a wider band) and past 256 (two-byte indices)."""
    heads = draw(st.integers(1, 3))
    n = draw(st.one_of(st.integers(1, 24), st.integers(70, 80),
                       st.integers(250, 260)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((heads, n, n)) < draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    band = draw(st.integers(0, 4))
    mask |= np.abs(np.arange(n)[:, None] - np.arange(n)) < band
    for head in mask:
        head[:, rng.choice(n, size=draw(st.integers(0, min(n, 4))),
                           replace=False)] = True
    return mask


theta_ds = st.one_of(st.floats(0.0, 0.99), st.integers(1, 40),
                     st.integers(1, 40).map(float))


class TestWorkloadMatchesPerHeadOracle:
    """Every field ``attention_workload`` reads off a layer's mask equals
    the oracle's per-head path (reorder each head, store its sparser block
    as CSC or COO, count its band locality over a dense band)."""

    @given(mask=layer_masks(), theta_d=theta_ds,
           index_format=st.sampled_from(["csc", "coo"]), reordered=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_statistics(self, mask, theta_d, index_format, reordered):
        _assert_layers_equal(
            attention_workload(mask, 16, theta_d, index_format=index_format,
                               reordered=reordered),
            oracle.oracle_attention_workload(
                mask, 16, theta_d, index_format=index_format,
                reordered=reordered))

    @given(a=attention_maps(), target=st.floats(0.0, 0.99), theta_d=theta_ds,
           index_format=st.sampled_from(["csc", "coo"]), reordered=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_layers_with_rows_tied_at_the_kth_value(self, a, target, theta_d,
                                                    index_format, reordered):
        """Integer-valued and constant rows tie at the k-th value: the
        build (prune_layer, then the statistics) equals the argsort oracle
        followed by the per-head path."""
        maps = a.reshape((-1,) + a.shape[-2:])
        want = oracle.prune_attention_map(
            maps, oracle.threshold_for_sparsity(maps, target))
        _assert_layers_equal(
            attention_workload(prune_layer(maps.copy(), target), 8, theta_d,
                               index_format=index_format, reordered=reordered),
            oracle.oracle_attention_workload(
                want, 8, theta_d, index_format=index_format,
                reordered=reordered))


def _assert_layers_equal(got, want):
    _assert_fields_equal(got, want, AttentionWorkload, skip={"heads"})
    assert len(got.heads) == len(want.heads)
    for got_head, want_head in zip(got.heads, want.heads):
        _assert_fields_equal(got_head, want_head, HeadWorkload)
    assert workload_fingerprint([got]) == workload_fingerprint([want])
