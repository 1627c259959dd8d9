"""Tests for optimisers (repro.nn.optim) and synthetic datasets (nn.data)."""

import numpy as np
import pytest

from repro.nn import (
    Tensor,
    Parameter,
    Adam,
    SyntheticPatchDataset,
    SyntheticPoseDataset,
    iterate_minibatches,
)


def quadratic_loss(param, target):
    diff = param - Tensor(target)
    return (diff * diff).sum()


class TestAdam:
    def test_converges_on_quadratic(self):
        target = np.array([1.0, -2.0])
        p = Parameter(np.zeros(2))
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            loss = quadratic_loss(p, target)
            opt.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=1e-3)

    def test_bias_correction_first_step(self):
        # First Adam step should be ≈ lr in the gradient direction.
        p = Parameter(np.array([0.0]))
        opt = Adam([p], lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        np.testing.assert_allclose(p.data, [-0.1], atol=1e-6)

    def test_zero_grad_clears_all(self):
        p1, p2 = Parameter(np.ones(1)), Parameter(np.ones(1))
        opt = Adam([p1, p2])
        p1.grad = np.ones(1)
        p2.grad = np.ones(1)
        opt.zero_grad()
        assert p1.grad is None and p2.grad is None

    def test_skips_params_without_grad(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.5)
        opt.step()  # no grad — must be a no-op, not an error
        np.testing.assert_allclose(p.data, [1.0])

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)


class TestPatchDataset:
    def test_deterministic(self):
        a = SyntheticPatchDataset(seed=3)
        b = SyntheticPatchDataset(seed=3)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_different_seeds_differ(self):
        a = SyntheticPatchDataset(seed=1)
        b = SyntheticPatchDataset(seed=2)
        assert not np.allclose(a.x, b.x)

    def test_shapes(self):
        ds = SyntheticPatchDataset(num_samples=64, num_tokens=16, patch_dim=8)
        assert ds.x.shape == (64, 16, 8)
        assert ds.y.shape == (64,)
        assert len(ds.x) == 64

    def test_labels_in_range(self):
        ds = SyntheticPatchDataset(num_classes=5, num_samples=128)
        assert ds.y.min() >= 0 and ds.y.max() < 5

    def test_salient_positions_fixed_and_informative(self):
        ds = SyntheticPatchDataset(num_samples=256, noise=0.1)
        sal = ds.salient_positions
        assert len(set(sal.tolist())) == ds.num_salient
        # Class signal concentrates at the salient positions: per-class mean
        # magnitude there should exceed non-salient positions.
        non_sal = [i for i in range(ds.num_tokens) if i not in sal]
        m_sal = np.abs(ds.x[:, sal, :]).mean()
        m_non = np.abs(ds.x[:, non_sal, :]).mean()
        assert m_sal > m_non

    def test_split_fractions(self):
        ds = SyntheticPatchDataset(num_samples=100)
        x_tr, y_tr, x_te, y_te = ds.split(0.8)
        assert len(x_tr) == 80 and len(x_te) == 20
        assert len(y_tr) == 80 and len(y_te) == 20


class TestPoseDataset:
    def test_shapes_and_determinism(self):
        a = SyntheticPoseDataset(num_samples=32, num_tokens=27, seed=1)
        b = SyntheticPoseDataset(num_samples=32, num_tokens=27, seed=1)
        assert a.x.shape == (32, 27, a.joint_dim)
        np.testing.assert_array_equal(a.y, b.y)

    def test_targets_are_smooth_latent(self):
        ds = SyntheticPoseDataset(noise=0.5, seed=0)
        # Targets bounded by the sinusoid range, inputs noisier.
        assert np.abs(ds.y).max() <= 1.0 + 1e-9
        assert ds.x.std() > ds.y.std()


class TestMinibatches:
    def test_covers_all_samples(self):
        x = np.arange(10)[:, None]
        y = np.arange(10)
        seen = []
        for xb, yb in iterate_minibatches(x, y, 3, shuffle=False):
            seen.extend(yb.tolist())
        assert sorted(seen) == list(range(10))

    def test_batch_sizes(self):
        x = np.zeros((10, 1))
        sizes = [len(xb) for xb, _ in
                 iterate_minibatches(x, np.zeros(10), 4, shuffle=False)]
        assert sizes == [4, 4, 2]

    def test_shuffle_uses_rng(self):
        x = np.arange(8)[:, None]
        y = np.arange(8)
        order1 = [t for _, yb in iterate_minibatches(
            x, y, 8, rng=np.random.default_rng(0)) for t in yb]
        order2 = [t for _, yb in iterate_minibatches(
            x, y, 8, rng=np.random.default_rng(0)) for t in yb]
        assert order1 == order2
