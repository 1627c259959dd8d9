"""Neural-network building blocks on top of :mod:`repro.nn.autograd`.

These mirror the PyTorch modules the ViTCoD paper composes its models from:
``Linear``, ``LayerNorm``, ``GELU``, the two-layer ``Mlp`` block, and a
``MultiHeadSelfAttention`` that supports the paper's two hooks — a *fixed
sparse attention mask* (split-and-conquer output) and an optional
*auto-encoder* applied to Q/K along the head dimension.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "LayerNorm",
    "GELU",
    "Mlp",
]


class Parameter(Tensor):
    """A tensor registered as learnable state of a :class:`Module`."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Minimal module base: parameter registration, train/eval mode, apply."""

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def parameters(self):
        """Yield all parameters of this module and its children."""
        for param in self._parameters.values():
            yield param
        for module in self._modules.values():
            yield from module.parameters()

    def named_parameters(self, prefix=""):
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def modules(self):
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def train(self, mode=True):
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self):
        return self.train(False)

    def state_dict(self):
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state):
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        if missing:
            raise KeyError(f"state dict missing parameters: {sorted(missing)}")
        for name, param in params.items():
            if param.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{param.data.shape} vs {state[name].shape}"
                )
            param.data = np.array(state[name], dtype=np.float64)

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Affine map ``y = x W + b`` with Xavier-uniform initialisation."""

    def __init__(self, in_features, out_features, bias=True, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng()
        bound = np.sqrt(6.0 / (in_features + out_features))
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(rng.uniform(-bound, bound, (in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x):
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class LayerNorm(Module):
    """Layer normalisation over the trailing dimension."""

    def __init__(self, dim, eps=1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x):
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normed = (x - mu) / (var + self.eps).sqrt()
        return normed * self.gamma + self.beta


class GELU(Module):
    def forward(self, x):
        return x.gelu()


class Mlp(Module):
    """Transformer MLP block: Linear → GELU → Linear (paper §IV-A)."""

    def __init__(self, dim, hidden_dim, rng=None):
        super().__init__()
        self.fc1 = Linear(dim, hidden_dim, rng=rng)
        self.act = GELU()
        self.fc2 = Linear(hidden_dim, dim, rng=rng)

    def forward(self, x):
        return self.fc2(self.act(self.fc1(x)))
