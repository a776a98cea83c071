"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

The op set is deliberately small: exactly what the deep archetypal model
needs (matmul, add with row-bias broadcast, elementwise arithmetic, relu,
tanh, exp, square, clamp, row softmax, transpose and sum). Graphs are built
eagerly; ``backward`` on a scalar node runs the chain rule over a
topological order. Double backward is not supported.

Each op builds ``Node(value, parents, grad_fns)``: ``grad_fns[i]`` maps the
output's gradient to the gradient of ``parents[i]`` (before a broadcast
parent's gradient is summed back to its shape). Only nodes that need a
gradient get one: a ``Node(value)`` leaf does, a ``constant`` does not, and
a computed node does when any of its parents does. ``backward`` neither
visits nor computes gradients for the others, so constants, data batches
and graphs used only for evaluation hold no gradient buffer.

A computed node's ``grad`` is None until ``backward`` first reaches it; it
is then allocated as ``zeros_like(value)`` and each contribution is added
in place. ``zeros_like`` gives the buffer the value's memory layout (a
transpose is Fortran-ordered). Ops further down sum that buffer along an
axis, and NumPy's axis sums round differently by layout, so storing the
first contribution itself (which may be a transposed view) would change
the gradients' last bits. A trainable leaf keeps a zero gradient from the
start, which ``zero_grad`` and the optimizer rely on.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphError, ShapeError


class Node:
    """A value in the computation graph with its accumulated gradient."""

    __slots__ = ("value", "grad", "parents", "grad_fns", "requires_grad")

    def __init__(self, value, parents=(), grad_fns=(), requires_grad=True):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents
        self.grad_fns = grad_fns
        if parents:
            requires_grad = any(p.requires_grad for p in parents)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.value) if requires_grad and not parents else None

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
            elif node.requires_grad and id(node) not in seen:
                seen.add(id(node))
                stack.append((node, True))
                stack.extend((parent, False) for parent in node.parents)
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            for parent, grad_fn in zip(node.parents, node.grad_fns):
                if parent.requires_grad:
                    if parent.grad is None:
                        parent.grad = np.zeros_like(parent.value)
                    parent.grad += _unbroadcast(grad_fn(node.grad), parent.shape)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        a, b = self, _wrap(other)
        if a.shape != b.shape and not _bias_broadcast(a.shape, b.shape):
            raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
        return Node(a.value + b.value, (a, b), (_identity, _identity))

    def __sub__(self, other):
        return self + (_wrap(other) * -1.0)

    def __mul__(self, other):
        a, b = self, _wrap(other)
        if a.shape != b.shape and a.value.size != 1 and b.value.size != 1:
            raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
        return Node(a.value * b.value, (a, b),
                    (lambda g: g * b.value, lambda g: g * a.value))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _wrap(other) - self

    def __neg__(self):
        return self * -1.0

    def __matmul__(self, other):
        a, b = self, _wrap(other)
        if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
        return Node(a.value @ b.value, (a, b),
                    (lambda g: g @ b.value.T, lambda g: a.value.T @ g))


def _identity(g):
    return g


def _wrap(x) -> Node:
    return x if isinstance(x, Node) else Node(x, requires_grad=False)


def _bias_broadcast(shape_a, shape_b) -> bool:
    """Allow (m, d) + (d,) / (1, d) row-bias style broadcasts only."""
    big, small = (shape_a, shape_b) if len(shape_a) >= len(shape_b) else (shape_b, shape_a)
    if len(big) == 2 and small in ((big[1],), (1, big[1])):
        return True
    return small == () or small == (1,)


def _unbroadcast(grad, shape):
    """Sum a gradient back to the shape of a broadcast operand. A scalar
    gradient (from ``reduce_sum``) broadcasts in the caller's ``+=``."""
    if grad.shape == shape or grad.shape == ():
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
    return Node(np.maximum(a.value, 0.0), (a,), (lambda g: (a.value > 0.0) * g,))


def tanh(a: Node) -> Node:
    t = np.tanh(a.value)
    return Node(t, (a,), (lambda g: (1.0 - t * t) * g,))


def exp(a: Node) -> Node:
    e = np.exp(a.value)
    return Node(e, (a,), (lambda g: e * g,))


def square(a: Node) -> Node:
    return Node(a.value**2, (a,), (lambda g: 2.0 * a.value * g,))


def clamp(a: Node, lo: float, hi: float) -> Node:
    """Clip values to [lo, hi]; gradient passes through inside the range."""
    return Node(np.clip(a.value, lo, hi), (a,),
                (lambda g: ((a.value >= lo) & (a.value <= hi)) * g,))


# ---------------------------------------------------------------------------
# Structured ops

def row_softmax(a: Node) -> Node:
    shifted = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    return Node(s, (a,), (lambda g: s * (g - (g * s).sum(axis=-1, keepdims=True)),))


def transpose(a: Node) -> Node:
    return Node(a.value.T, (a,), (lambda g: g.T,))


def reduce_sum(a: Node) -> Node:
    return Node(a.value.sum(), (a,), (_identity,))
