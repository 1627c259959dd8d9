"""Tests for NN modules (repro.nn.modules) and losses (functional)."""

import numpy as np
import pytest

from repro.nn import (
    Tensor,
    Module,
    Parameter,
    Linear,
    LayerNorm,
    GELU,
    Mlp,
    functional as F,
)


class TestModuleBase:
    def test_parameter_registration(self):
        class M(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.ones(3))
                self.child = Linear(2, 2)

        m = M()
        names = dict(m.named_parameters())
        assert "w" in names
        assert "child.weight" in names and "child.bias" in names
        assert len(list(m.parameters())) == 3

    def test_train_eval_propagates(self):
        mlp = Mlp(2, 4)
        mlp.eval()
        assert all(not m.training for m in mlp.modules())
        mlp.train()
        assert all(m.training for m in mlp.modules())

    def test_state_dict_roundtrip(self):
        a = Linear(3, 4, rng=np.random.default_rng(1))
        b = Linear(3, 4, rng=np.random.default_rng(2))
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a.weight.data, b.weight.data)

    def test_state_dict_missing_key_raises(self):
        a = Linear(3, 4)
        state = a.state_dict()
        del state["bias"]
        with pytest.raises(KeyError):
            a.load_state_dict(state)

    def test_state_dict_shape_mismatch_raises(self):
        a = Linear(3, 4)
        state = a.state_dict()
        state["weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_forward_abstract(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestLinear:
    def test_shapes(self, rng):
        lin = Linear(6, 3, rng=rng)
        out = lin(Tensor(rng.standard_normal((5, 6))))
        assert out.shape == (5, 3)

    def test_batched_input(self, rng):
        lin = Linear(6, 3, rng=rng)
        out = lin(Tensor(rng.standard_normal((2, 7, 6))))
        assert out.shape == (2, 7, 3)

    def test_no_bias(self, rng):
        lin = Linear(4, 4, bias=False, rng=rng)
        assert lin.bias is None
        assert len(list(lin.parameters())) == 1

    def test_gradient_flow(self, rng):
        lin = Linear(3, 2, rng=rng)
        out = lin(Tensor(rng.standard_normal((4, 3))))
        loss = (out * out).sum()
        loss.backward()
        assert lin.weight.grad.shape == (3, 2)
        assert lin.bias.grad.shape == (2,)


class TestLayerNorm:
    def test_normalises(self, rng):
        ln = LayerNorm(8)
        out = ln(Tensor(rng.standard_normal((4, 8)) * 10 + 3))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)

    def test_learnable_scale_shift(self, rng):
        ln = LayerNorm(4)
        ln.gamma.data[:] = 2.0
        ln.beta.data[:] = 1.0
        out = ln(Tensor(rng.standard_normal((2, 4))))
        np.testing.assert_allclose(out.data.mean(axis=-1), 1.0, atol=1e-8)

    def test_gradients(self, rng):
        ln = LayerNorm(5)
        x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        (ln(x) * ln(x)).sum().backward()
        assert ln.gamma.grad is not None and ln.beta.grad is not None


class TestActivationsAndMlp:
    def test_gelu_matches_tensor_op(self, rng):
        x = Tensor(rng.standard_normal(10))
        np.testing.assert_allclose(GELU()(x).data, x.gelu().data)

    def test_mlp_shapes(self, rng):
        mlp = Mlp(6, 24, rng=rng)
        out = mlp(Tensor(rng.standard_normal((2, 5, 6))))
        assert out.shape == (2, 5, 6)


class TestFunctional:
    def test_cross_entropy_perfect_prediction(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-6

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((4, 8)))
        loss = F.cross_entropy(logits, np.zeros(4, dtype=int))
        np.testing.assert_allclose(loss.item(), np.log(8), atol=1e-10)

    def test_cross_entropy_gradient_direction(self):
        logits = Tensor(np.zeros((1, 3)), requires_grad=True)
        F.cross_entropy(logits, np.array([1])).backward()
        # Gradient should be negative on the true class, positive elsewhere.
        assert logits.grad[0, 1] < 0
        assert logits.grad[0, 0] > 0 and logits.grad[0, 2] > 0

    def test_mse_loss(self):
        loss = F.mse_loss(Tensor([1.0, 2.0]), np.array([1.0, 4.0]))
        np.testing.assert_allclose(loss.item(), 2.0)

    def test_l1_loss(self):
        loss = F.l1_loss(Tensor([1.0, -2.0]), np.array([0.0, 0.0]))
        np.testing.assert_allclose(loss.item(), 1.5)

    def test_reconstruction_loss_detaches_target(self):
        orig = Tensor(np.ones(4), requires_grad=True)
        recon = Tensor(np.zeros(4), requires_grad=True)
        F.reconstruction_loss(orig, recon).backward()
        assert orig.grad is None  # target side detached
        assert recon.grad is not None
