"""Dense feedforward layers and the Adam optimizer over autodiff nodes."""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .errors import ParameterError, ShapeError
from .numerics import rng_create

_ACTIVATIONS = {"relu": ad.relu, "tanh": ad.tanh, "identity": lambda x: x}


class Mlp:
    """Fully connected network. Weights use seeded Glorot-uniform init,
    biases start at zero."""

    def __init__(self, sizes, activation="relu", output_activation="identity",
                 rng=None):
        if len(sizes) < 2:
            raise ParameterError("an MLP needs at least input and output sizes")
        if activation not in _ACTIVATIONS or output_activation not in _ACTIVATIONS:
            raise ParameterError(f"unknown activation '{activation}'/'{output_activation}'")
        self.sizes = list(sizes)
        self.activation = activation
        self.output_activation = output_activation
        rng = rng if rng is not None else rng_create(0)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            self.weights.append(ad.Node(w))
            self.biases.append(ad.Node(np.zeros(fan_out)))

    def parameters(self):
        return self.weights + self.biases

    def forward(self, x: ad.Node) -> ad.Node:
        if x.value.ndim != 2 or x.value.shape[1] != self.sizes[0]:
            raise ShapeError(
                f"MLP expects input (m, {self.sizes[0]}), got {x.value.shape}"
            )
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            act = self.output_activation if i == last else self.activation
            h = _ACTIVATIONS[act](h)
        return h

    def state(self):
        return {
            "sizes": self.sizes,
            "activation": self.activation,
            "output_activation": self.output_activation,
            "weights": [w.value.tolist() for w in self.weights],
            "biases": [b.value.tolist() for b in self.biases],
        }


class Adam:
    """Standard bias-corrected Adam over a fixed parameter list."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.step_count += 1
        t = self.step_count
        for i, p in enumerate(self.params):
            g = p.grad
            if g.shape != p.value.shape:
                raise ShapeError("gradient shape does not match parameter")
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g**2
            m_hat = self.m[i] / (1.0 - self.beta1**t)
            v_hat = self.v[i] / (1.0 - self.beta2**t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
