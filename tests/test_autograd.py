"""Tests for the reverse-mode autograd engine (repro.nn.autograd)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import Tensor, no_grad


def numerical_grad(fn, x, eps=1e-6):
    """Central-difference gradient of scalar fn w.r.t. ndarray x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = fn()
        x[idx] = orig - eps
        lo = fn()
        x[idx] = orig
        grad[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return grad


def squared(t):
    return t * t


def check_gradient(make_output, param, atol=1e-5):
    """Compare autograd gradient of make_output() (scalar Tensor) against
    numerical differentiation w.r.t. ``param`` (a Tensor)."""
    param.zero_grad()
    out = make_output()
    out.backward()
    analytic = param.grad.copy()
    param.zero_grad()
    numeric = numerical_grad(lambda: make_output().item(), param.data)
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=1e-4)


class TestBasicOps:
    def test_add_values(self, rng):
        a = Tensor(rng.standard_normal((3, 4)))
        b = Tensor(rng.standard_normal((3, 4)))
        np.testing.assert_allclose((a + b).data, a.data + b.data)

    def test_add_scalar(self):
        a = Tensor([1.0, 2.0])
        np.testing.assert_allclose((a + 1.5).data, [2.5, 3.5])
        np.testing.assert_allclose((1.5 + a).data, [2.5, 3.5])

    def test_sub_and_rsub(self):
        a = Tensor([3.0])
        assert (a - 1.0).item() == 2.0
        assert (a - Tensor([5.0])).item() == -2.0

    def test_mul_div(self):
        a = Tensor([4.0])
        assert (a * 2).item() == 8.0
        assert (a / 2).item() == 2.0

    def test_neg_pow(self):
        a = Tensor([3.0])
        assert (-a).item() == -3.0

    def test_matmul_values(self, rng):
        a = Tensor(rng.standard_normal((2, 3)))
        b = Tensor(rng.standard_normal((3, 5)))
        np.testing.assert_allclose((a @ b).data, a.data @ b.data)

    def test_batched_matmul(self, rng):
        a = Tensor(rng.standard_normal((4, 2, 3)))
        b = Tensor(rng.standard_normal((4, 3, 5)))
        assert (a @ b).shape == (4, 2, 5)


class TestGradients:
    def test_add_grad_broadcast(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        check_gradient(lambda: (x + b).sum(), x)
        check_gradient(lambda: ((x + b) * (x + b)).sum(), b)

    def test_mul_grad(self, rng):
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        y = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        check_gradient(lambda: (x * y).sum(), x)
        check_gradient(lambda: (x * y).sum(), y)

    def test_div_grad(self, rng):
        x = Tensor(rng.standard_normal((3,)) + 3.0, requires_grad=True)
        y = Tensor(rng.standard_normal((3,)) + 3.0, requires_grad=True)
        check_gradient(lambda: (x / y).sum(), x)
        check_gradient(lambda: (x / y).sum(), y)

    def test_matmul_grad(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        check_gradient(lambda: ((a @ b) * (a @ b)).sum(), a)
        check_gradient(lambda: ((a @ b) * (a @ b)).sum(), b)

    def test_matmul_broadcast_grad(self, rng):
        a = Tensor(rng.standard_normal((5, 2, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        check_gradient(lambda: ((a @ w) * (a @ w)).sum(), w)

    def test_exp_log_sqrt_tanh_abs(self, rng):
        x = Tensor(np.abs(rng.standard_normal(5)) + 0.5, requires_grad=True)
        check_gradient(lambda: x.sqrt().sum(), x)
        check_gradient(lambda: x.abs().sum(), x)

    def test_gelu_grad(self, rng):
        x = Tensor(rng.standard_normal(6), requires_grad=True)
        check_gradient(lambda: x.gelu().sum(), x)

    def test_softmax_grad(self, rng):
        x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        w = rng.standard_normal((3, 5))
        check_gradient(lambda: (x.softmax(axis=-1) * w).sum(), x)

    def test_log_softmax_grad(self, rng):
        x = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        w = rng.standard_normal((2, 4))
        check_gradient(lambda: (x.log_softmax(axis=-1) * w).sum(), x)

    def test_sum_axis_grad(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        check_gradient(lambda: squared(x.sum(axis=0)).sum(), x)

    def test_mean_var_grad(self, rng):
        x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        check_gradient(lambda: (x.mean(axis=-1) * x.mean(axis=-1)).sum(), x)
        check_gradient(lambda: x.var(axis=-1).sum(), x)

    def test_reshape_transpose_grad(self, rng):
        x = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        check_gradient(lambda: squared(x.reshape(3, 4).transpose()).sum(), x)

    def test_swapaxes_grad(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        check_gradient(lambda: squared(x.swapaxes(0, 2)).sum(), x)

    def test_getitem_grad(self, rng):
        x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        check_gradient(lambda: squared(x[1:3, :2]).sum(), x)

    def test_concat_grad(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        check_gradient(lambda: squared(Tensor.concat([a, b], axis=0)).sum(), a)
        check_gradient(lambda: squared(Tensor.concat([a, b], axis=1)).sum(), b)

    def test_masked_fill_grad(self, rng):
        x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        mask = np.eye(3, dtype=bool)
        x.masked_fill(mask, -5.0).sum().backward()
        expected = np.ones((3, 3)) - np.eye(3)
        np.testing.assert_allclose(x.grad, expected)

    def test_grad_accumulates_on_reuse(self):
        x = Tensor([2.0], requires_grad=True)
        ((x * x) + x).sum().backward()  # d/dx (x^2 + x) = 2x + 1 = 5
        np.testing.assert_allclose(x.grad, [5.0])


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_backward_with_explicit_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 3).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(x.grad, [3.0, 30.0])

    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad
        assert (x * 2).requires_grad

    def test_no_grad_restores_on_exception(self):
        try:
            with no_grad():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert (Tensor([1.0], requires_grad=True) * 2).requires_grad

    def test_detach(self):
        x = Tensor([1.0], requires_grad=True)
        y = x.detach() * 2
        assert not y.requires_grad

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph(self):
        # x feeds two paths that rejoin: gradient must sum once per path.
        x = Tensor([3.0], requires_grad=True)
        a = x * 2
        b = x * 5
        (a + b).sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_deep_chain_iterative_toposort(self):
        # Deep chains must not hit the recursion limit (iterative DFS).
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])


class TestHypothesisGradients:
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_softmax_rows_sum_to_one(self, rows, cols, seed):
        x = Tensor(np.random.default_rng(seed).standard_normal((rows, cols)))
        out = x.softmax(axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(rows),
                                   atol=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_matmul_grad_matches_numeric(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        check_gradient(lambda: ((a @ b).gelu()).sum(), a)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_unbroadcast_consistency(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((3, 1, 4)), requires_grad=True)
        y = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        out = (x * y).sum()
        out.backward()
        assert x.grad.shape == x.shape
        assert y.grad.shape == y.shape
