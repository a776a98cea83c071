import json

import numpy as np
import pytest

from archlab import autodiff as ad
from archlab import nn
from archlab.errors import ParameterError, ShapeError
from archlab.numerics import rng_create

from test_autodiff import squared_loss, total


class TestMlp:
    def test_forward_shape(self):
        mlp = nn.Mlp([3, 8, 2], rng=rng_create(0))
        out = mlp.forward(ad.Node(np.zeros((5, 3))))
        assert out.shape == (5, 2)

    def test_rejects_bad_input_shape(self):
        mlp = nn.Mlp([3, 2], rng=rng_create(0))
        with pytest.raises(ShapeError):
            mlp.forward(ad.Node(np.zeros((5, 4))))

    def test_rejects_bad_config(self):
        with pytest.raises(ParameterError):
            nn.Mlp([3])
        with pytest.raises(ParameterError):
            nn.Mlp([3, 2], activation="selu")

    def test_zero_input_gives_zero_output_at_init(self):
        # biases start at zero, so the all-zero input maps to zero
        mlp = nn.Mlp([4, 8, 3], rng=rng_create(1))
        out = mlp.forward(ad.Node(np.zeros((2, 4))))
        np.testing.assert_array_equal(out.value, 0.0)

    def test_glorot_bound(self):
        mlp = nn.Mlp([10, 20], rng=rng_create(2))
        bound = np.sqrt(6.0 / 30.0)
        w = mlp.weights[0].value
        assert np.all(np.abs(w) <= bound)
        assert w.std() > 0.1 * bound  # actually spread out, not degenerate

    def test_deterministic_init(self):
        w1 = nn.Mlp([5, 5], rng=rng_create(3)).weights[0].value
        w2 = nn.Mlp([5, 5], rng=rng_create(3)).weights[0].value
        np.testing.assert_array_equal(w1, w2)

    def test_state_round_trip(self):
        # state() through JSON holds all a network needs to be rebuilt exactly
        mlp = nn.Mlp([3, 6, 2], activation="tanh", rng=rng_create(4))
        state = json.loads(json.dumps(mlp.state()))
        again = nn.Mlp(state["sizes"], activation=state["activation"],
                       output_activation=state["output_activation"], rng=rng_create(9))
        for node, value in zip(again.parameters(), state["weights"] + state["biases"]):
            node.value[...] = np.array(value, float)
        x = ad.Node(rng_create(5).standard_normal((4, 3)))
        np.testing.assert_array_equal(mlp.forward(x).value, again.forward(x).value)

    def test_parameter_count(self):
        mlp = nn.Mlp([3, 6, 2], rng=rng_create(0))
        assert len(mlp.parameters()) == 4  # 2 weight matrices + 2 biases

    def test_gradients_flow_to_all_parameters(self):
        mlp = nn.Mlp([3, 6, 2], activation="tanh", rng=rng_create(6))
        x = ad.Node(rng_create(7).standard_normal((5, 3)))
        loss = squared_loss(mlp.forward(x))
        loss.backward()
        for p in mlp.parameters():
            assert np.any(p.grad != 0.0)


class LoopAdam:
    """Reference: Adam as a loop over the parameter arrays, one update each."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr, self.beta1, self.beta2, self.eps = params, lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]

    def step(self):
        self.t += 1
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g**2
            m_hat = self.m[i] / (1.0 - self.beta1**self.t)
            v_hat = self.v[i] / (1.0 - self.beta2**self.t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class TestAdam:
    def test_parameters_become_views_of_the_buffer(self):
        mlp = nn.Mlp([3, 5, 4, 2], rng=rng_create(10))
        before = [p.value.copy() for p in mlp.parameters()]
        opt = nn.Adam(mlp.parameters())
        assert opt.values.size == sum(v.size for v in before)
        for p, value in zip(mlp.parameters(), before):
            np.testing.assert_array_equal(p.value, value)
            assert p.value.shape == p.grad.shape == value.shape
            assert np.shares_memory(p.value, opt.values)
            assert np.shares_memory(p.grad, opt.grads)
        mlp.weights[1].grad[...] = 1.0
        opt.zero_grad()
        assert not opt.grads.any()

    def test_matches_per_array_loop_bit_for_bit(self):
        rng = rng_create(11)
        x, y = rng.standard_normal((30, 3)), rng.standard_normal((30, 2))
        flat, loop = (nn.Mlp([3, 8, 6, 2], activation="tanh", rng=rng_create(12))
                      for _ in range(2))
        flat_opt = nn.Adam(flat.parameters(), lr=0.01)
        loop_opt = LoopAdam(loop.parameters(), lr=0.01)
        for _ in range(20):
            for net in (flat, loop):
                for p in net.parameters():
                    p.zero_grad()
                squared_loss(net.forward(ad.constant(x)), y).backward()
            flat_opt.step()
            loop_opt.step()
            for p, q in zip(flat.parameters(), loop.parameters()):
                np.testing.assert_array_equal(p.value, q.value)

    def test_step_updates_in_place(self):
        w = ad.Node(np.zeros((3, 2)))
        opt = nn.Adam([w], lr=0.1)
        buffers = (opt.values, opt.grads, opt.m, opt.v)
        for _ in range(2):
            w.grad[...] = 1.0
            opt.step()
        assert all(a is b for a, b in zip(buffers, (opt.values, opt.grads, opt.m, opt.v)))
        np.testing.assert_allclose(w.value, -0.2)

    def test_minimizes_quadratic(self):
        # minimize ||w - target||^2; Adam should converge
        target = np.array([[1.0, -2.0], [0.5, 3.0]])
        w = ad.Node(np.zeros((2, 2)))
        opt = nn.Adam([w], lr=0.05)
        for _ in range(500):
            opt.zero_grad()
            loss = squared_loss(w, target)
            loss.backward()
            opt.step()
        np.testing.assert_allclose(w.value, target, atol=1e-3)

    def test_first_step_size_is_lr(self):
        # bias correction makes the first update exactly lr * sign(grad)
        w = ad.Node(np.array([[10.0]]))
        opt = nn.Adam([w], lr=0.1)
        opt.zero_grad()
        total(w).backward()
        opt.step()
        assert w.value[0, 0] == pytest.approx(10.0 - 0.1, abs=1e-6)

    def test_known_two_step_trajectory(self):
        # hand-computed Adam on f(w) = w with constant gradient 1:
        # every m_hat/v_hat ratio is 1, so each step subtracts ~lr
        w = ad.Node(np.array([[0.0]]))
        opt = nn.Adam([w], lr=0.5, eps=0.0)
        for step in range(3):
            opt.zero_grad()
            total(w).backward()
            opt.step()
            assert w.value[0, 0] == pytest.approx(-0.5 * (step + 1), abs=1e-12)

    def test_trains_mlp_regression(self):
        rng = rng_create(8)
        x_data = rng.standard_normal((200, 2))
        y_data = np.stack([x_data[:, 0] * 2 + 1, -x_data[:, 1]], axis=1)
        mlp = nn.Mlp([2, 16, 2], activation="tanh", rng=rng)
        opt = nn.Adam(mlp.parameters(), lr=0.01)
        first = None
        for _ in range(300):
            opt.zero_grad()
            loss = squared_loss(mlp.forward(ad.Node(x_data)), y_data, 1.0 / y_data.size)
            loss.backward()
            opt.step()
            first = first if first is not None else float(loss.value)
        assert float(loss.value) < 0.01 * first

    def test_shape_mismatch_detected(self):
        w = ad.Node(np.zeros((2, 2)))
        opt = nn.Adam([w])
        w.grad = np.zeros((3, 3))
        with pytest.raises(ShapeError):
            opt.step()
