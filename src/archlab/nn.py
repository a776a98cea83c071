"""Dense feedforward layers and the Adam optimizer over autodiff nodes."""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .errors import ParameterError, ShapeError
from .numerics import rng_create


class Mlp:
    """Fully connected network. Weights use seeded Glorot-uniform init,
    biases start at zero."""

    def __init__(self, sizes, activation="relu", output_activation="identity",
                 rng=None):
        if len(sizes) < 2:
            raise ParameterError("an MLP needs at least input and output sizes")
        if activation not in ad.ACTIVATIONS or output_activation not in ad.ACTIVATIONS:
            raise ParameterError(f"unknown activation '{activation}'/'{output_activation}'")
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
        """The network on an (m, sizes[0]) batch, one node a layer; else ShapeError."""
        acts = [self.activation] * (len(self.weights) - 1) + [self.output_activation]
        for w, b, act in zip(self.weights, self.biases, acts):
            x = ad.affine(x, w, b, act)
        return x


class Adam:
    """Standard bias-corrected Adam over a fixed parameter list. It copies
    the parameters' values and gradients into flat float64 buffers
    (``values``, ``grads``) and makes each parameter's ``value`` and
    ``grad`` a view of its slice, so ``step`` is a few in-place vector
    operations, bit-identical to a loop over the arrays as Adam is
    elementwise. Write parameters in place: ``step`` raises ``ShapeError``
    if one is not its view."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        size = sum(p.value.size for p in self.params)
        self.values, self.grads = np.empty(size), np.empty(size)
        self.m, self.v = np.zeros(size), np.zeros(size)
        self._update, self._scale = np.empty(size), np.empty(size)
        start = 0
        for p in self.params:
            stop = start + p.value.size
            value, grad = (flat[start:stop].reshape(p.shape) for flat in (self.values, self.grads))
            value[...], grad[...] = p.value, p.grad
            p.value, p.grad, start = value, grad, stop
        self._views = [(p.value, p.grad) for p in self.params]

    def zero_grad(self):
        self.grads.fill(0.0)

    def step(self):
        if any(p.value is not value or p.grad is not grad
               for p, (value, grad) in zip(self.params, self._views)):
            raise ShapeError("a parameter's value or gradient is no longer its view")
        self.step_count += 1
        t = self.step_count
        m, v, update, scale = self.m, self.v, self._update, self._scale
        m *= self.beta1  # m = beta1 m + (1 - beta1) g
        m += np.multiply(self.grads, 1.0 - self.beta1, out=update)
        v *= self.beta2  # v = beta2 v + (1 - beta2) g^2
        v += np.multiply(np.square(self.grads, out=update), 1.0 - self.beta2, out=update)
        # values -= lr m_hat / (sqrt(v_hat) + eps)
        np.multiply(np.divide(m, 1.0 - self.beta1**t, out=update), self.lr, out=update)
        np.sqrt(np.divide(v, 1.0 - self.beta2**t, out=scale), out=scale)
        scale += self.eps
        self.values -= np.divide(update, scale, out=update)
