"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

The op set is deliberately small: exactly what the deep archetypal model
needs (matmul, add with row-bias broadcast, elementwise arithmetic, relu,
tanh, exp, square, clamp, row softmax, transpose and sum). Graphs are built
eagerly; ``backward`` on a scalar node runs the chain rule over a
topological order. Double backward is not supported.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphError, ShapeError


class Node:
    """A value in the computation graph with its accumulated gradient."""

    __slots__ = ("value", "grad", "parents", "_backprop", "requires_grad")

    def __init__(self, value, parents=(), backprop=None, requires_grad=True):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.parents = tuple(parents)
        self._backprop = backprop
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.grad[...] = 0.0

    def backward(self):
        if self.value.size != 1:
            raise GraphError(
                f"backward requires a scalar loss, got shape {self.value.shape}"
            )
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                stack.append((parent, False))
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node._backprop is not None:
                node._backprop()

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _wrap(other)
        a, b = self, other
        if a.shape != b.shape and not _bias_broadcast(a.shape, b.shape):
            raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
        out = Node(a.value + b.value, (a, b))

        def backprop():
            a.grad += _unbroadcast(out.grad, a.shape)
            b.grad += _unbroadcast(out.grad, b.shape)
        out._backprop = backprop
        return out

    def __sub__(self, other):
        return self + (_wrap(other) * -1.0)

    def __mul__(self, other):
        other = _wrap(other)
        a, b = self, other
        if a.shape != b.shape and a.value.size != 1 and b.value.size != 1:
            raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
        out = Node(a.value * b.value, (a, b))

        def backprop():
            a.grad += _unbroadcast(out.grad * b.value, a.shape)
            b.grad += _unbroadcast(out.grad * a.value, b.shape)
        out._backprop = backprop
        return out

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _wrap(other) - self

    def __neg__(self):
        return self * -1.0

    def __matmul__(self, other):
        other = _wrap(other)
        a, b = self, other
        if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
        out = Node(a.value @ b.value, (a, b))

        def backprop():
            a.grad += out.grad @ b.value.T
            b.grad += a.value.T @ out.grad
        out._backprop = backprop
        return out


def _wrap(x) -> Node:
    return x if isinstance(x, Node) else Node(x, requires_grad=False)


def _bias_broadcast(shape_a, shape_b) -> bool:
    """Allow (m, d) + (d,) / (1, d) row-bias style broadcasts only."""
    big, small = (shape_a, shape_b) if len(shape_a) >= len(shape_b) else (shape_b, shape_a)
    if len(big) == 2 and small in ((big[1],), (1, big[1])):
        return True
    return small == () or small == (1,)


def _unbroadcast(grad, shape):
    if grad.shape == shape:
        return grad
    if shape == () or shape == (1,):
        return grad.sum().reshape(shape)
    if len(shape) == 1:
        return grad.sum(axis=0)
    if len(shape) == 2 and shape[0] == 1:
        return grad.sum(axis=0, keepdims=True)
    raise ShapeError(f"cannot reduce gradient {grad.shape} to {shape}")


def constant(x) -> Node:
    return Node(x, requires_grad=False)


# ---------------------------------------------------------------------------
# Elementwise ops

def relu(a: Node) -> Node:
    out = Node(np.maximum(a.value, 0.0), (a,))

    def backprop():
        a.grad += (a.value > 0.0) * out.grad
    out._backprop = backprop
    return out


def tanh(a: Node) -> Node:
    t = np.tanh(a.value)
    out = Node(t, (a,))

    def backprop():
        a.grad += (1.0 - t * t) * out.grad
    out._backprop = backprop
    return out


def exp(a: Node) -> Node:
    e = np.exp(a.value)
    out = Node(e, (a,))

    def backprop():
        a.grad += e * out.grad
    out._backprop = backprop
    return out


def square(a: Node) -> Node:
    out = Node(a.value**2, (a,))

    def backprop():
        a.grad += 2.0 * a.value * out.grad
    out._backprop = backprop
    return out


def clamp(a: Node, lo: float, hi: float) -> Node:
    """Clip values to [lo, hi]; gradient passes through inside the range."""
    out = Node(np.clip(a.value, lo, hi), (a,))

    def backprop():
        inside = (a.value >= lo) & (a.value <= hi)
        a.grad += inside * out.grad
    out._backprop = backprop
    return out


# ---------------------------------------------------------------------------
# Structured ops

def row_softmax(a: Node) -> Node:
    shifted = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    out = Node(s, (a,))

    def backprop():
        dot = (out.grad * s).sum(axis=-1, keepdims=True)
        a.grad += s * (out.grad - dot)
    out._backprop = backprop
    return out


def transpose(a: Node) -> Node:
    out = Node(a.value.T, (a,))

    def backprop():
        a.grad += out.grad.T
    out._backprop = backprop
    return out


def reduce_sum(a: Node) -> Node:
    out = Node(a.value.sum(), (a,))

    def backprop():
        a.grad += out.grad
    out._backprop = backprop
    return out
