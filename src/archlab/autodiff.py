"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

The op set is what the deep model's graphs build: ``affine`` (a layer
``act(x @ w + b)`` as one node, for an ``act`` named in ``ACTIVATIONS``,
the bias optional), ``clamp``, ``row_softmax``, ``transpose`` and
``constant``. Any other op, such as each of the deep model's loss terms, is
one ``Node(value, parents, vjp)``: ``vjp`` maps the output's gradient to a
gradient per parent, each at that parent's own shape, or None where a
parent needs none, so a fused op computes shared factors once. Graphs are
built eagerly and each node takes the next creation index, so it comes
after its parents. ``backward`` on a scalar node runs the ancestors that
need a gradient in descending index order, the tape of a Wengert list: a
node runs after every node that consumes it. Double backward is not
supported.

Only nodes that need a gradient get one: a ``Node(value)`` leaf does, a
``constant`` does not, and a computed node does when any of its parents
does, so constants, data batches and evaluation-only graphs hold none. A
leaf has its gradient from the start and ``backward`` adds into it in
place, which ``zero_grad`` and the optimizer's flat buffer rely on. A
computed node's ``grad`` is None until its first contribution is copied
into a buffer with the value's memory layout (a transpose is
Fortran-ordered). Storing the contribution itself would alias another
node's gradient when it is one, and when it is a transposed view the axis
sums further down would round differently, as NumPy's do by layout.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import GraphError, ShapeError

_created = itertools.count()  # creation index of the next node
_FLOAT64 = np.dtype(np.float64)

# name -> (the activation in place, its derivative from its output); None
# for the identity
ACTIVATIONS = {"identity": None,
               "relu": (lambda z: np.maximum(z, 0.0, out=z), lambda y: y > 0.0),
               "tanh": (lambda z: np.tanh(z, out=z), lambda y: 1.0 - y * y)}


class Node:
    """A value in the computation graph with its accumulated gradient."""

    __slots__ = ("value", "grad", "parents", "vjp", "requires_grad", "index")

    def __init__(self, value, parents=(), vjp=None, requires_grad=True):
        if type(value) is not np.ndarray or value.dtype is not _FLOAT64:
            value = np.asarray(value, dtype=np.float64)
        self.value, self.parents, self.vjp, self.index = value, parents, vjp, next(_created)
        if parents:
            requires_grad = any([p.requires_grad for p in parents])
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(value) if requires_grad and not parents else None

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.grad[...] = 0.0

    def backward(self):
        if self.value.size != 1:
            raise GraphError(f"backward requires a scalar loss, got shape {self.value.shape}")
        tape, stack = {self.index: self}, [self]
        while stack:
            for parent in stack.pop().parents:
                if parent.parents and parent.requires_grad and parent.index not in tape:
                    tape[parent.index] = parent
                    stack.append(parent)
        self.grad = np.ones_like(self.value)
        for index in sorted(tape, reverse=True):
            node = tape[index]
            for parent, grad in zip(node.parents, node.vjp(node.grad)):
                if parent.requires_grad:
                    if parent.grad is None:
                        parent.grad = np.empty_like(parent.value)
                        parent.grad[...] = grad
                    else:
                        parent.grad += grad


def affine(x: Node, w: Node, b: Node | None = None, activation: str = "identity") -> Node:
    """``act(x @ w + b)`` as one node, for an ``activation`` named in
    ACTIVATIONS; the row bias ``b`` of shape (d,) is optional."""
    if (x.value.ndim != 2 or w.value.ndim != 2 or x.shape[1] != w.shape[0]
            or b is not None and b.shape != w.shape[1:]):
        bias = "" if b is None else f" + bias {b.shape}"
        raise ShapeError(f"matmul: incompatible shapes {x.shape} @ {w.shape}{bias}")
    out = x.value @ w.value
    if b is not None:
        out += b.value
    act = ACTIVATIONS[activation]
    if act is not None:
        act[0](out)

    def vjp(g):
        if act is not None:
            g = act[1](out) * g
        return (g @ w.value.T if x.requires_grad else None,
                x.value.T @ g if w.requires_grad else None,
                None if b is None else g.sum(axis=0))
    return Node(out, (x, w) if b is None else (x, w, b), vjp)


def constant(x) -> Node:
    return Node(x, requires_grad=False)


def clamp(a: Node, lo: float, hi: float) -> Node:
    """Clip values to [lo, hi]; gradient passes through inside the range."""
    return Node(np.clip(a.value, lo, hi), (a,),
                lambda g: (((a.value >= lo) & (a.value <= hi)) * g,))


def row_softmax(a: Node) -> Node:
    shifted = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    return Node(s, (a,), lambda g: (s * (g - (g * s).sum(axis=-1, keepdims=True)),))


def transpose(a: Node) -> Node:
    return Node(a.value.T, (a,), lambda g: (g.T,))
