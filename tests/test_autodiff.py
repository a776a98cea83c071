"""Checks of every autodiff op, plus graph rules.

The engine's op set is ``affine`` (with the ``ACTIVATIONS`` relu, tanh and
identity), ``clamp``, ``row_softmax``, ``transpose`` and ``constant``; any
other node is built through ``Node(value, parents, vjp)``, whose ``vjp``
returns each parent's gradient at that parent's own shape. Each op is
checked against plain NumPy values and against central differences or
gradients derived by hand. Scalar losses and the small graphs of the graph
rules are test-local nodes built through that public constructor, so no
check relies on one op to test another.

Gradient checks perturb inputs at generic (non-kink) points: relu and clamp
have undefined derivatives exactly at their break points, so inputs are
drawn from a continuous distribution where ties have probability zero.
"""

import numpy as np
import pytest

from archlab import autodiff as ad
from archlab.deep_aa import DeepAaArch, DeepAaModel, _batch_softmax
from archlab.errors import GraphError, ShapeError


def central_difference(f, x, h=1e-6):
    """Gradient of scalar f at array x via central differences."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        hi = f()
        x[idx] = orig - h
        lo = f()
        x[idx] = orig
        g[idx] = (hi - lo) / (2 * h)
    return g


def check_grad(build, *shapes, seed=0, atol=1e-7, rtol=1e-5):
    """build(*nodes) -> scalar Node; verifies every input gradient."""
    rng = np.random.default_rng(seed)
    nodes = [ad.Node(rng.normal(size=s)) for s in shapes]
    loss = build(*nodes)
    loss.backward()
    for node in nodes:
        fd = central_difference(lambda: float(build(*nodes).value), node.value)
        np.testing.assert_allclose(node.grad, fd, atol=atol, rtol=rtol)


# Test-local nodes, built through the public constructor ---------------------

def elementwise(f, partials, *nodes):
    """f(*values) as one node of the parents' common shape; ``partials``
    (*values) gives each parent's partial derivative, elementwise."""
    values = [n.value for n in nodes]
    ds = partials(*values)
    return ad.Node(f(*values), nodes, lambda g: [g * d for d in ds])


def total(node, weights=1.0):
    """sum(weights * node) as one scalar node; its gradient with respect to
    ``node`` is ``weights``, at ``node``'s shape."""
    return ad.Node(np.sum(node.value * weights), (node,),
                   lambda g: (g * weights * np.ones(node.shape),))


def squared_loss(node, target=0.0, scale=1.0):
    """scale * sum((node - target)^2) as one scalar node."""
    r = node.value - target
    return ad.Node(scale * np.sum(r * r), (node,), lambda g: (2.0 * scale * g * r,))


def add(*nodes):
    """The sum of nodes of one shape."""
    return elementwise(lambda *v: sum(v), lambda *v: [1.0] * len(v), *nodes)


class TestArithmetic:
    def test_matmul(self):
        # affine without a bias is the matrix product
        rng = np.random.default_rng(1)
        a, b = (ad.Node(rng.normal(size=s)) for s in ((3, 4), (4, 2)))
        np.testing.assert_array_equal(ad.affine(a, b).value, a.value @ b.value)
        check_grad(lambda a, b: squared_loss(ad.affine(a, b)), (3, 4), (4, 2))

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeError, match="matmul"):
            ad.affine(ad.Node(np.zeros((2, 3))), ad.Node(np.zeros((2, 3))))

    def test_add_row_bias(self):
        # the row bias is added to every row, so its gradient is the column
        # sum of the output's
        rng = np.random.default_rng(5)
        x, w, b = (ad.Node(rng.normal(size=s)) for s in ((3, 4), (4, 2), (2,)))
        probe = rng.normal(size=(3, 2))
        total(ad.affine(x, w, b), probe).backward()
        assert b.grad.shape == (2,)
        np.testing.assert_allclose(b.grad, probe.sum(axis=0), rtol=1e-14)

    def test_affine(self):
        check_grad(lambda x, w, b: squared_loss(ad.affine(x, w, b)),
                   (5, 3), (3, 4), (4,))

    def test_affine_equals_matmul_plus_bias(self):
        rng = np.random.default_rng(1)
        x, w, b = (ad.Node(rng.normal(size=s)) for s in ((6, 5), (5, 4), (4,)))
        np.testing.assert_array_equal(ad.affine(x, w, b).value, x.value @ w.value + b.value)

    @pytest.mark.parametrize("activation", ["identity", "relu", "tanh"])
    def test_affine_with_activation(self, activation):
        check_grad(lambda x, w, b: squared_loss(ad.affine(x, w, b, activation)),
                   (5, 3), (3, 4), (4,))
        check_grad(lambda x, w: squared_loss(ad.affine(x, w, None, activation)),
                   (5, 3), (3, 4))

    def test_affine_activation_equals_composed_bit_for_bit(self):
        # the layer against the same layer composed in NumPy, with the
        # gradients of sum(out^2) derived by hand
        rng = np.random.default_rng(2)
        x, w, b = (ad.Node(rng.normal(size=s)) for s in ((6, 5), (5, 4), (4,)))
        z = x.value @ w.value + b.value
        for activation, out, slope in (("relu", np.maximum(z, 0.0), z > 0.0),
                                       ("tanh", np.tanh(z), 1.0 - np.tanh(z) ** 2)):
            for node in (x, w, b):
                node.zero_grad()
            layer = ad.affine(x, w, b, activation)
            squared_loss(layer).backward()
            dz = slope * (2.0 * out)
            want = [out, dz @ w.value.T, x.value.T @ dz, dz.sum(axis=0)]
            for got, expected in zip([layer.value, x.grad, w.grad, b.grad], want):
                np.testing.assert_array_equal(got, expected)

    def test_affine_skips_gradients_of_constants(self):
        rng = np.random.default_rng(3)
        x, w = ad.constant(rng.normal(size=(4, 3))), ad.Node(rng.normal(size=(3, 2)))
        out = ad.affine(x, w, None, "tanh")
        dx, dw, _ = out.vjp(np.ones((4, 2)))
        assert dx is None
        np.testing.assert_allclose(dw, x.value.T @ (1.0 - out.value**2))

    def test_affine_shape_error(self):
        x, w = ad.Node(np.zeros((2, 3))), ad.Node(np.zeros((3, 4)))
        with pytest.raises(ShapeError):
            ad.affine(x, w, ad.Node(np.zeros(3)))
        with pytest.raises(ShapeError):
            ad.affine(w, x, ad.Node(np.zeros(4)))


class TestElementwise:
    """The activations, each an in-place forward map and its derivative
    taken from the output."""

    def test_relu(self):
        forward, slope = ad.ACTIVATIONS["relu"]
        z = np.random.default_rng(4).normal(size=(5, 5))
        y = forward(z.copy())
        np.testing.assert_array_equal(y, np.maximum(z, 0.0))
        fd = central_difference(lambda: float(np.maximum(z, 0.0).sum()), z)
        np.testing.assert_allclose(slope(y), fd, atol=1e-7)

    def test_relu_value(self):
        out = ad.affine(ad.Node([[-1.0, 2.0]]), ad.constant(np.eye(2)), None, "relu")
        np.testing.assert_array_equal(out.value, [[0.0, 2.0]])

    def test_tanh(self):
        forward, slope = ad.ACTIVATIONS["tanh"]
        z = np.random.default_rng(5).normal(size=(4, 3))
        y = forward(z.copy())
        np.testing.assert_array_equal(y, np.tanh(z))
        fd = central_difference(lambda: float(np.tanh(z).sum()), z)
        np.testing.assert_allclose(slope(y), fd, atol=1e-7, rtol=1e-5)

    def test_clamp_gradient_masks_outside(self):
        a = ad.Node([[-2.0, 0.5, 3.0]])
        clamped = ad.clamp(a, -1.0, 1.0)
        total(clamped).backward()
        np.testing.assert_array_equal(a.grad, [[0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(clamped.value, [[-1.0, 0.5, 1.0]])


class TestStructured:
    def test_row_softmax_rows_stochastic(self):
        s = ad.row_softmax(ad.Node(np.random.default_rng(0).normal(size=(6, 4))))
        np.testing.assert_allclose(s.value.sum(axis=1), 1.0, atol=1e-12)

    def test_row_softmax_grad(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(5, 4))
        check_grad(lambda a: squared_loss(ad.row_softmax(a), w), (5, 4))

    def test_row_softmax_large_logits_stable(self):
        s = ad.row_softmax(ad.Node([[1000.0, 0.0], [-1000.0, 0.0]]))
        np.testing.assert_allclose(s.value, [[1.0, 0.0], [0.0, 1.0]], atol=1e-300)

    def test_row_softmax_shift_invariance(self):
        m = np.random.default_rng(1).normal(size=(4, 3))
        np.testing.assert_allclose(ad.row_softmax(ad.Node(m)).value,
                                   ad.row_softmax(ad.Node(m + 100.0)).value,
                                   atol=1e-12)

    def test_transpose(self):
        m = np.random.default_rng(2).normal(size=(3, 2))
        np.testing.assert_array_equal(ad.transpose(ad.Node(m)).value, m.T)
        check_grad(lambda a: squared_loss(ad.affine(ad.transpose(a), a)), (3, 2))


class TestGraph:
    def test_backward_requires_scalar(self):
        with pytest.raises(GraphError):
            ad.Node(np.zeros((2, 2))).backward()

    def test_gradient_accumulates_on_reuse(self):
        # loss = sum(a*a) + sum(a) uses `a` twice: dL/da = 2a + 1
        a = ad.Node([[1.0, 2.0]])
        loss = add(squared_loss(a), total(a))
        loss.backward()
        np.testing.assert_allclose(a.grad, 2 * a.value + 1.0, atol=1e-12)

    def test_diamond_graph(self):
        # b = 2a used by two branches whose grads must both reach a
        a = ad.Node([[3.0]])
        b = elementwise(lambda a: 2.0 * a, lambda a: [2.0], a)
        loss = add(squared_loss(b), total(b))
        loss.backward()
        # d/da (4a^2 + 2a) = 8a + 2
        np.testing.assert_allclose(a.grad, [[8 * 3.0 + 2.0]], atol=1e-12)

    def test_deep_chain_no_recursion_limit(self):
        a = ad.Node([[1.0]])
        h = a
        for _ in range(5000):
            h = elementwise(lambda h: h * 1.0, lambda h: [1.0], h)
        total(h).backward()
        np.testing.assert_allclose(a.grad, [[1.0]])

    def test_zero_grad(self):
        a = ad.Node([[1.0, 2.0]])
        squared_loss(a).backward()
        assert np.any(a.grad != 0)
        a.zero_grad()
        np.testing.assert_array_equal(a.grad, 0.0)

    def test_constant_wrapping(self):
        # a constant takes any array-like as float64 and passes on no gradient
        k = ad.constant([[2, 3]])
        assert k.value.dtype == np.float64 and k.grad is None and not k.requires_grad
        a = ad.Node([[1.0, 4.0]])
        loss = total(elementwise(lambda a, k: a * k, lambda a, k: [k, a], a, k))
        loss.backward()
        np.testing.assert_allclose(loss.value, 14.0)
        np.testing.assert_allclose(a.grad, [[2.0, 3.0]])
        assert k.grad is None

    def test_constant_gets_no_gradient(self):
        rng = np.random.default_rng(3)
        x = ad.constant(rng.normal(size=(4, 3)))
        w = ad.Node(rng.normal(size=(3, 2)))

        def loss():
            return squared_loss(ad.affine(x, w))
        loss().backward()
        assert x.grad is None
        fd = central_difference(lambda: float(loss().value), w.value)
        np.testing.assert_allclose(w.grad, fd, atol=1e-7, rtol=1e-5)

    def test_evaluation_graph_holds_no_gradient_buffer(self):
        model = DeepAaModel(DeepAaArch(input_dim=4, k=3, encoder_hidden=(8,),
                                       decoder_hidden=(8,)))
        x = np.random.default_rng(4).normal(size=(5, 4))
        params = {id(p) for p in model.parameters()}
        a, b_logits, logvar, mu = model._heads(ad.constant(x))
        stack, nodes = [a, _batch_softmax(b_logits), logvar, mu], {}
        while stack:
            node = stack.pop()
            nodes[id(node)] = node
            stack.extend(p for p in node.parents if id(p) not in nodes)
        graph = [n for key, n in nodes.items() if key not in params]
        assert len(graph) > 10
        assert all(n.grad is None for n in graph)


class TestTape:
    """backward runs the graph in reverse creation order; each case is
    checked against gradients derived by hand."""

    def test_diamond(self):
        # a feeds b = 3a and c = exp(a), both feed b * c, and b also feeds
        # the loss directly: L = sum(b * c + b) = sum(3a exp(a) + 3a)
        a = ad.Node([[0.5, -1.0, 2.0]])
        b = elementwise(lambda a: a * 3.0, lambda a: [3.0], a)
        c = elementwise(np.exp, lambda a: [np.exp(a)], a)
        loss = total(elementwise(lambda b, c: b * c + b, lambda b, c: [c + 1.0, b], b, c))
        loss.backward()
        e = np.exp(a.value)
        np.testing.assert_allclose(b.grad, e + 1.0, rtol=1e-14)
        np.testing.assert_allclose(c.grad, 3.0 * a.value, rtol=1e-14)
        np.testing.assert_allclose(a.grad, 3.0 * (e + 1.0) + 3.0 * a.value * e,
                                   rtol=1e-14)

    def test_node_used_twice_in_one_op(self):
        # a computed node as both operands: L = sum(b * b) + sum(b + b) with
        # b = exp(a), so dL/db = 2b + 2 and dL/da = (2b + 2) b
        a = ad.Node([[0.3, -0.7]])
        b = elementwise(np.exp, lambda a: [np.exp(a)], a)
        loss = add(total(elementwise(lambda u, v: u * v, lambda u, v: [v, u], b, b)),
                   total(add(b, b)))
        loss.backward()
        np.testing.assert_allclose(b.grad, 2.0 * b.value + 2.0, rtol=1e-14)
        np.testing.assert_allclose(a.grad, (2.0 * b.value + 2.0) * b.value, rtol=1e-14)

    def test_only_ancestors_and_no_constants_get_gradients(self):
        # L = sum(k * a^2) with a constant k; nodes built before and after
        # the loss that it does not depend on get no gradient
        a = ad.Node([[1.5, -2.0]])
        k = ad.constant([[2.0, 3.0]])
        unused = elementwise(np.exp, lambda a: [np.exp(a)], a)
        loss = total(elementwise(lambda k, a: k * a * a, lambda k, a: [a * a, 2.0 * k * a],
                                 k, a))
        later = elementwise(lambda a: a * 4.0, lambda a: [4.0], a)
        loss.backward()
        np.testing.assert_allclose(a.grad, 2.0 * k.value * a.value, rtol=1e-14)
        assert k.grad is None
        assert unused.grad is None
        assert later.grad is None
