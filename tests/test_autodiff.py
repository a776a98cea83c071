"""Finite-difference verification of every autodiff op, plus graph rules.

Gradient checks perturb inputs at generic (non-kink) points: relu and clamp
have undefined derivatives exactly at their break points, so inputs are
drawn from a continuous distribution where ties have probability zero.
"""

import numpy as np
import pytest

from archlab import autodiff as ad
from archlab.deep_aa import DeepAaArch, DeepAaModel
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


class TestArithmetic:
    def test_add(self):
        check_grad(lambda a, b: ad.reduce_sum(ad.square(a + b)), (3, 4), (3, 4))

    def test_add_row_bias(self):
        check_grad(lambda a, b: ad.reduce_sum(ad.square(a + b)), (3, 4), (4,))

    def test_add_scalar(self):
        check_grad(lambda a, b: ad.reduce_sum(ad.square(a + b)), (3, 4), ())

    def test_add_shape_error(self):
        with pytest.raises(ShapeError):
            ad.Node(np.zeros((2, 3))) + ad.Node(np.zeros((3, 2)))

    def test_sub_and_neg(self):
        check_grad(lambda a, b: ad.reduce_sum(ad.square(a - b) + (-a)), (2, 2), (2, 2))

    def test_mul(self):
        check_grad(lambda a, b: ad.reduce_sum(a * b * a), (3, 3), (3, 3))

    def test_mul_scalar_node(self):
        check_grad(lambda a, s: ad.reduce_sum(a * s), (3, 2), ())

    def test_mul_python_scalar(self):
        check_grad(lambda a: ad.reduce_sum(a * 2.5 + 3.0 * a), (4,))

    def test_mul_size_one_operand_of_any_rank(self):
        a, b = ad.Node(np.ones((3, 4))), ad.Node([[2.0]])
        ad.reduce_sum(a * b).backward()
        np.testing.assert_array_equal(b.grad, [[12.0]])
        np.testing.assert_array_equal(a.grad, np.full((3, 4), 2.0))
        check_grad(lambda a, s: ad.reduce_sum(ad.square(a * s)), (3, 2), (1, 1, 1))

    def test_matmul(self):
        check_grad(lambda a, b: ad.reduce_sum(ad.square(a @ b)), (3, 4), (4, 2))

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeError):
            ad.Node(np.zeros((2, 3))) @ ad.Node(np.zeros((2, 3)))

    def test_affine(self):
        check_grad(lambda x, w, b: ad.reduce_sum(ad.square(ad.affine(x, w, b))),
                   (5, 3), (3, 4), (4,))

    def test_affine_equals_matmul_plus_bias(self):
        rng = np.random.default_rng(1)
        x, w, b = (ad.Node(rng.normal(size=s)) for s in ((6, 5), (5, 4), (4,)))
        np.testing.assert_array_equal(ad.affine(x, w, b).value, (x @ w + b).value)

    @pytest.mark.parametrize("activation", ["identity", "relu", "tanh"])
    def test_affine_with_activation(self, activation):
        check_grad(lambda x, w, b: ad.reduce_sum(ad.square(ad.affine(x, w, b, activation))),
                   (5, 3), (3, 4), (4,))
        check_grad(lambda x, w: ad.reduce_sum(ad.square(ad.affine(x, w, None, activation))),
                   (5, 3), (3, 4))

    def test_affine_activation_equals_composed_bit_for_bit(self):
        rng = np.random.default_rng(2)
        x, w, b = (ad.Node(rng.normal(size=s)) for s in ((6, 5), (5, 4), (4,)))
        for activation, op in (("relu", ad.relu), ("tanh", ad.tanh)):
            results = []
            for out in (ad.affine(x, w, b, activation), op(x @ w + b)):
                for node in (x, w, b):
                    node.zero_grad()
                ad.reduce_sum(ad.square(out)).backward()
                results.append([out.value] + [node.grad.copy() for node in (x, w, b)])
            for got, want in zip(*results):
                np.testing.assert_array_equal(got, want)

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
    def test_relu(self):
        check_grad(lambda a: ad.reduce_sum(ad.square(ad.relu(a))), (5, 5))

    def test_relu_value(self):
        out = ad.relu(ad.Node([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out.value, [[0.0, 2.0]])

    def test_tanh(self):
        check_grad(lambda a: ad.reduce_sum(ad.tanh(a)), (4, 3))

    def test_exp(self):
        check_grad(lambda a: ad.reduce_sum(ad.exp(a)), (3, 3))

    def test_square(self):
        check_grad(lambda a: ad.reduce_sum(ad.square(a)), (2, 5))

    def test_clamp_gradient_masks_outside(self):
        a = ad.Node([[-2.0, 0.5, 3.0]])
        out = ad.reduce_sum(ad.clamp(a, -1.0, 1.0))
        out.backward()
        np.testing.assert_array_equal(a.grad, [[0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(out.value, 0.5)


class TestStructured:
    def test_row_softmax_rows_stochastic(self):
        s = ad.row_softmax(ad.Node(np.random.default_rng(0).normal(size=(6, 4))))
        np.testing.assert_allclose(s.value.sum(axis=1), 1.0, atol=1e-12)

    def test_row_softmax_grad(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(5, 4))
        check_grad(
            lambda a: ad.reduce_sum(ad.square(ad.row_softmax(a) - w)), (5, 4)
        )

    def test_row_softmax_large_logits_stable(self):
        s = ad.row_softmax(ad.Node([[1000.0, 0.0], [-1000.0, 0.0]]))
        np.testing.assert_allclose(s.value, [[1.0, 0.0], [0.0, 1.0]], atol=1e-300)

    def test_row_softmax_shift_invariance(self):
        m = np.random.default_rng(1).normal(size=(4, 3))
        np.testing.assert_allclose(ad.row_softmax(ad.Node(m)).value,
                                   ad.row_softmax(ad.Node(m + 100.0)).value,
                                   atol=1e-12)

    def test_transpose(self):
        check_grad(lambda a: ad.reduce_sum(ad.square(ad.transpose(a) @ a)), (3, 2))



class TestGraph:
    def test_backward_requires_scalar(self):
        with pytest.raises(GraphError):
            ad.Node(np.zeros((2, 2))).backward()

    def test_gradient_accumulates_on_reuse(self):
        # loss = sum(a*a) + sum(a) uses `a` twice: dL/da = 2a + 1
        a = ad.Node([[1.0, 2.0]])
        loss = ad.reduce_sum(a * a) + ad.reduce_sum(a)
        loss.backward()
        np.testing.assert_allclose(a.grad, 2 * a.value + 1.0, atol=1e-12)

    def test_diamond_graph(self):
        # b = 2a used by two branches whose grads must both reach a
        a = ad.Node([[3.0]])
        b = a * 2.0
        loss = ad.reduce_sum(b * b + b)
        loss.backward()
        # d/da (4a^2 + 2a) = 8a + 2
        np.testing.assert_allclose(a.grad, [[8 * 3.0 + 2.0]], atol=1e-12)

    def test_deep_chain_no_recursion_limit(self):
        a = ad.Node([[1.0]])
        h = a
        for _ in range(5000):
            h = h * 1.0
        ad.reduce_sum(h).backward()
        np.testing.assert_allclose(a.grad, [[1.0]])

    def test_zero_grad(self):
        a = ad.Node([[1.0, 2.0]])
        ad.reduce_sum(ad.square(a)).backward()
        assert np.any(a.grad != 0)
        a.zero_grad()
        np.testing.assert_array_equal(a.grad, 0.0)

    def test_constant_wrapping(self):
        a = ad.Node([[1.0]])
        loss = ad.reduce_sum(a + [[2.0]])
        loss.backward()
        np.testing.assert_allclose(loss.value, 3.0)
        np.testing.assert_allclose(a.grad, [[1.0]])

    def test_constant_gets_no_gradient(self):
        rng = np.random.default_rng(3)
        x = ad.constant(rng.normal(size=(4, 3)))
        w = ad.Node(rng.normal(size=(3, 2)))

        def loss():
            return ad.reduce_sum(ad.square(x @ w))
        loss().backward()
        assert x.grad is None
        fd = central_difference(lambda: float(loss().value), w.value)
        np.testing.assert_allclose(w.grad, fd, atol=1e-7, rtol=1e-5)

    def test_evaluation_graph_holds_no_gradient_buffer(self):
        model = DeepAaModel(DeepAaArch(input_dim=4, k=3, encoder_hidden=(8,),
                                       decoder_hidden=(8,)))
        x = np.random.default_rng(4).normal(size=(5, 4))
        params = {id(p) for p in model.parameters()}
        stack, nodes = list(model._encode_nodes(ad.constant(x))), {}
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
        b = a * 3.0
        c = ad.exp(a)
        loss = ad.reduce_sum(b * c + b)
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
        b = ad.exp(a)
        loss = ad.reduce_sum(b * b) + ad.reduce_sum(b + b)
        loss.backward()
        np.testing.assert_allclose(b.grad, 2.0 * b.value + 2.0, rtol=1e-14)
        np.testing.assert_allclose(a.grad, (2.0 * b.value + 2.0) * b.value, rtol=1e-14)

    def test_only_ancestors_and_no_constants_get_gradients(self):
        # L = sum(k * a^2) with a constant k; nodes built before and after
        # the loss that it does not depend on get no gradient
        a = ad.Node([[1.5, -2.0]])
        k = ad.constant([[2.0, 3.0]])
        unused = ad.exp(a)
        loss = ad.reduce_sum(k * ad.square(a))
        later = a * 4.0
        loss.backward()
        np.testing.assert_allclose(a.grad, 2.0 * k.value * a.value, rtol=1e-14)
        assert k.grad is None
        assert unused.grad is None
        assert later.grad is None
