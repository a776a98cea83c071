import tracemalloc

import numpy as np
import pytest

from archlab import autodiff as ad
from archlab import deep_aa
from archlab.datasets import Dataset
from archlab.deep_aa import DeepAaArch, DeepAaHyper, DeepAaModel
from archlab.errors import (
    MissingGroundTruth,
    NumericalError,
    ParameterError,
    ShapeError,
    build_config,
)
from archlab.numerics import rng_create, simplex_vertices

from test_autodiff import check_grad, total
from test_numerics import barycentric_in_hull


def tiny_model(k=3, p=4, side=False, seed=0, activation="relu"):
    arch = DeepAaArch(input_dim=p, k=k, encoder_hidden=(8,), decoder_hidden=(8,),
                      side_hidden=(4,) if side else None, activation=activation)
    return DeepAaModel(arch, seed=seed)


def loss_values(model, x, y=None, lam=1.0, seed=0):
    """(total, parts) of the objective as floats, with a fixed noise draw."""
    noise = rng_create(seed).standard_normal((x.shape[0], model.arch.latent_dim))
    total, parts = model._loss_nodes(x, y, lam, noise)
    return float(total.value), {k: float(v.value) for k, v in parts.items()}


class TestArch:
    def test_latent_dim(self):
        assert DeepAaArch(input_dim=4, k=5).latent_dim == 4

    def test_validation(self):
        with pytest.raises(ParameterError):
            DeepAaArch(input_dim=4, k=1)
        with pytest.raises(ParameterError):
            DeepAaArch(input_dim=0, k=3)
        with pytest.raises(ParameterError):
            DeepAaArch(input_dim=4, k=3, encoder_hidden=())

    def test_dict_round_trip(self):
        arch = DeepAaArch(input_dim=4, k=3, encoder_hidden=(16, 8),
                          decoder_hidden=(8,), side_hidden=(4,), activation="tanh")
        assert build_config(DeepAaArch, arch.to_dict(), "arch") == arch

    def test_hyper_validation(self):
        with pytest.raises(ParameterError):
            DeepAaHyper(lambda0=0.0)
        with pytest.raises(ParameterError):
            DeepAaHyper(lambda0=float("nan"))
        with pytest.raises(ParameterError):
            DeepAaHyper(lr=-1.0)
        with pytest.raises(ParameterError):
            DeepAaHyper(lr=float("nan"))
        with pytest.raises(ParameterError):
            DeepAaHyper(batch=0)
        with pytest.raises(ParameterError):
            DeepAaHyper(lambda_every=0)
        for bad in ({"lambda_growth": 0.0}, {"lambda_growth": -2.0},
                    {"lambda_growth": float("nan")}, {"at_weight": -1.0},
                    {"at_weight": float("nan")}, {"side_weight": -1.0},
                    {"side_weight": float("nan")}):
            with pytest.raises(ParameterError, match=f"field '{next(iter(bad))}'"):
                DeepAaHyper(**bad)
        # zero weights switch a loss term off
        DeepAaHyper(at_weight=0.0, side_weight=0.0)


class TestEncode:
    def test_outputs_stochastic_and_in_hull(self):
        model = tiny_model()
        x = rng_create(0).standard_normal((10, 4))
        a, b, logvar, mu = model.encode(x)
        assert a.shape == (10, 3)
        assert b.shape == (3, 10)
        assert logvar.shape == (10, 2)
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(b.sum(axis=1), 1.0, atol=1e-12)
        assert barycentric_in_hull(model.frame, mu).all()
        # hull of a unit-circumradius simplex: norms bounded by 1
        assert np.all(np.linalg.norm(mu, axis=1) <= 1.0 + 1e-9)

    def test_logvar_clamped(self):
        model = tiny_model()
        x = 1e6 * rng_create(1).standard_normal((5, 4))
        _, _, logvar, _ = model.encode(x)
        assert np.all(logvar >= deep_aa.LOGVAR_MIN)
        assert np.all(logvar <= deep_aa.LOGVAR_MAX)

    def test_one_hot_a_row_gives_exact_vertex(self):
        model = tiny_model()
        # force one-hot by overwriting the A head with huge biases
        model.a_head.weights[0].value[...] = 0.0
        model.a_head.biases[0].value[...] = [1e3, 0.0, 0.0]
        _, _, _, mu = model.encode(np.zeros((1, 4)))
        np.testing.assert_allclose(mu[0], model.frame.vertices[0], atol=1e-9)

    def test_ba_product_row_stochastic(self):
        model = tiny_model()
        a, b, _, _ = model.encode(rng_create(2).standard_normal((7, 4)))
        ba = b @ a
        assert ba.shape == (3, 3)
        np.testing.assert_allclose(ba.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(ba >= 0)

    def test_rejects_wrong_width(self):
        with pytest.raises(ShapeError):
            tiny_model().encode(np.zeros((3, 5)))

    def test_rejects_empty_batch(self):
        with pytest.raises(ShapeError, match="no rows"):
            tiny_model().encode(np.zeros((0, 4)))

    def test_decode_rejects_non_finite_points(self):
        model = tiny_model(side=True)
        for bad in (np.full((2, 2), np.nan), [[0.0, np.inf]]):
            with pytest.raises(NumericalError, match="latent points"):
                model.decode(bad)

    def test_chunked_encode_matches_one_graph(self):
        n = 3 * deep_aa.ENCODE_CHUNK_ROWS + 17  # three full chunks and a part
        model = DeepAaModel(DeepAaArch(input_dim=4, k=3), seed=1)
        x = rng_create(3).standard_normal((n, 4))
        got = model.encode(x)
        a, b_logits, logvar, mu = model._heads(ad.constant(x))
        want = [node.value for node in (a, deep_aa._batch_softmax(b_logits), logvar, mu)]
        for g, w in zip(got, want):
            # BLAS may round a chunk's narrow head products apart from the
            # whole matrix's; near-zero entries are held to the array's scale
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())
        b = got[1]
        assert b.shape == (3, n)
        np.testing.assert_allclose(b.sum(axis=1), 1.0, atol=1e-12)

    def test_encode_memory_does_not_grow_with_rows(self):
        model = DeepAaModel(DeepAaArch(input_dim=9, k=3), seed=0)
        x = rng_create(4).standard_normal((40_000, 9))
        tracemalloc.start()
        try:
            model.encode(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one graph over all 40 000 rows peaks near 88 MB; the outputs take 3.2 MB
        assert peak < 40e6


class TestArchetypeLoss:
    def test_identity_mapping_zero(self):
        frame = simplex_vertices(3)
        assert deep_aa.archetype_loss(np.eye(3), np.eye(3), frame) == 0.0

    def test_uniform_averaging_equals_k(self):
        # B A = all-1/k matrix maps every vertex to the centroid (origin),
        # so the loss is the squared norm of all k unit vertices = k
        for k in (3, 4, 5):
            frame = simplex_vertices(k)
            uniform = np.full((k, k), 1.0 / k)
            loss = deep_aa.archetype_loss(uniform, np.eye(k), frame)
            assert loss == pytest.approx(k, abs=1e-12)

    def test_swap_two_vertices_k3(self):
        # swapping two unit-circumradius triangle vertices displaces each by
        # the side length sqrt(3): loss = 2 * 3 = 6
        frame = simplex_vertices(3)
        swap = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        loss = deep_aa.archetype_loss(swap, np.eye(3), frame)
        assert loss == pytest.approx(6.0, abs=1e-12)

    def test_nonnegative(self):
        rng = rng_create(3)
        frame = simplex_vertices(4)
        for _ in range(20):
            a = rng.dirichlet(np.ones(4), size=6)
            b = rng.dirichlet(np.ones(6), size=4)
            assert deep_aa.archetype_loss(a, b, frame) >= 0.0


class TestKlTerm:
    def test_zero_at_prior(self):
        assert deep_aa.kl_term(np.zeros((3, 2)), np.zeros((3, 2))) == 0.0

    def test_single_unit_mean(self):
        assert deep_aa.kl_term(np.array([[1.0]]), np.array([[0.0]])) == \
            pytest.approx(0.5)

    def test_monte_carlo_oracle(self):
        # KL(q || N(0,I)) ~ E_q[log q - log p] with 10^6 samples
        rng = rng_create(4)
        mu = rng.uniform(-2, 2, size=(1, 3))
        logvar = rng.uniform(-1.5, 1.0, size=(1, 3))
        closed = deep_aa.kl_term(mu, logvar)
        std = np.exp(0.5 * logvar)
        t = mu + std * rng.standard_normal((1_000_000, 3))
        log_q = (-0.5 * ((t - mu) / std) ** 2 - 0.5 * np.log(2 * np.pi) -
                 0.5 * logvar).sum(axis=1)
        log_p = (-0.5 * t**2 - 0.5 * np.log(2 * np.pi)).sum(axis=1)
        mc = float(np.mean(log_q - log_p))
        assert closed == pytest.approx(mc, rel=0.01)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            deep_aa.kl_term(np.zeros((2, 2)), np.zeros((2, 3)))


class TestReparameterize:
    def test_deterministic_given_seed(self):
        mu, lv = np.zeros((4, 2)), np.zeros((4, 2))
        t1 = deep_aa.reparameterize(mu, lv, rng_create(5))
        t2 = deep_aa.reparameterize(mu, lv, rng_create(5))
        np.testing.assert_array_equal(t1, t2)

    def test_tiny_variance_sticks_to_mu(self):
        mu = np.ones((100, 2))
        lv = np.full((100, 2), deep_aa.LOGVAR_MIN)
        t = deep_aa.reparameterize(mu, lv, rng_create(6))
        assert np.abs(t - mu).max() < 0.03  # 3-sigma at std e^{-5}

    def test_empirical_mean_is_mu(self):
        mu = np.array([[2.0, -1.0]])
        lv = np.zeros((1, 2))
        rng = rng_create(7)
        draws = np.array([
            deep_aa.reparameterize(mu, lv, rng)[0] for _ in range(20_000)
        ])
        np.testing.assert_allclose(draws.mean(axis=0), mu[0], atol=0.03)


class TestLoss:
    def test_parts_recombine(self):
        model = tiny_model()
        x = rng_create(8).standard_normal((6, 4))
        total, parts = loss_values(model, x, lam=2.5)
        assert total == pytest.approx(
            parts["kl"] + 2.5 * parts["recon"] + parts["at"], abs=1e-12
        )
        assert all(v >= 0 for v in parts.values())

    def test_side_head_requires_labels(self):
        model = tiny_model(side=True)
        with pytest.raises(ParameterError):
            loss_values(model, np.zeros((3, 4)))

    def test_side_part_present(self):
        model = tiny_model(side=True)
        x = rng_create(9).standard_normal((5, 4))
        total, parts = loss_values(model, x, y=np.ones(5))
        assert "side" in parts
        assert total == pytest.approx(
            parts["kl"] + parts["recon"] + parts["at"] + parts["side"], abs=1e-12
        )

    def test_public_terms_equal_training_terms(self):
        # kl_term and archetype_loss evaluate the training graph's own terms,
        # so they agree with it exactly, not only to rounding
        model = tiny_model()
        rng = rng_create(12)
        for _ in range(20):
            x = rng.standard_normal((int(rng.integers(2, 9)), 4))
            _, parts = loss_values(model, x, seed=int(rng.integers(100)))
            a, b, logvar, mu = model.encode(x)
            assert deep_aa.kl_term(mu, logvar) == parts["kl"]
            assert deep_aa.archetype_loss(a, b, model.frame) == parts["at"]


V3 = simplex_vertices(3).vertices
EPS, PROBE, TARGET, LABELS = (rng_create(30 + i).standard_normal(s)
                              for i, s in enumerate([(5, 2), (5, 2), (5, 3), (5, 1)]))
WEIGHTS = rng_create(35).uniform(0.5, 2.0, size=3)


def _archetype_oracle(a, b):
    """||V - B A V||^2 and its gradients: with M = B A and R = V - M V, the
    gradient with respect to M is -2 R V^T, so A's is B^T dM and B's dM A^T."""
    r = V3 - np.einsum("ij,jk,kl->il", b, a, V3)
    d_m = -2.0 * np.einsum("ij,kj->ik", r, V3)
    return np.sum(r * r), [np.einsum("ji,jk->ik", b, d_m), np.einsum("ij,kj->ik", d_m, a)]


# term -> (input shapes, the term as one node, an oracle: the same term's
# value and its gradient per input, composed in plain NumPy on the inputs'
# arrays with each gradient derived by hand)
FUSED_TERMS = {
    "kl": ([(5, 2), (5, 2)], deep_aa._kl,
           lambda mu, lv: ((0.5 / 5) * np.sum(np.exp(lv) + mu**2 - 1.0 - lv),
                           [mu / 5, (0.5 / 5) * (np.exp(lv) - 1.0)])),
    "sample": ([(5, 2), (5, 2)],
               lambda mu, lv: total(deep_aa._sample(mu, lv, EPS), PROBE),
               lambda mu, lv: (np.sum((mu + np.exp(lv / 2) * EPS) * PROBE),
                               [PROBE, PROBE * EPS * np.exp(lv / 2) / 2])),
    "recon": ([(5, 3)], lambda x_hat: deep_aa._squared_error(TARGET - x_hat.value, x_hat, WEIGHTS),
              lambda x_hat: ((0.5 / 5) * np.sum((TARGET - x_hat) ** 2 * WEIGHTS),
                             [(x_hat - TARGET) * WEIGHTS / 5])),
    "side": ([(5, 1)], lambda y_hat: deep_aa._squared_error(LABELS - y_hat.value, y_hat, np.ones(1)),
             lambda y_hat: ((0.5 / 5) * np.sum((LABELS - y_hat) ** 2), [(y_hat - LABELS) / 5])),
    "archetype": ([(5, 3), (3, 5)], lambda a, b: deep_aa._archetype(a, b, V3), _archetype_oracle),
    "total": ([(), (), (), ()], lambda *terms: deep_aa._weighted_sum(terms, [1.0, 1.3, 64.0, 0.7]),
              lambda kl, recon, at, side: (kl + 1.3 * recon + 64.0 * at + 0.7 * side,
                                           [1.0, 1.3, 64.0, 0.7])),
}


class TestFusedTerms:
    @pytest.mark.parametrize("name", sorted(FUSED_TERMS))
    def test_gradient_matches_finite_differences(self, name):
        shapes, fused, _ = FUSED_TERMS[name]
        check_grad(fused, *shapes)

    @pytest.mark.parametrize("name", sorted(FUSED_TERMS))
    def test_value_and_gradient_match_composed_graph(self, name):
        shapes, fused, composed = FUSED_TERMS[name]
        rng = rng_create(36)
        nodes = [ad.Node(rng.standard_normal(s)) for s in shapes]
        out = fused(*nodes)
        out.backward()
        value, grads = composed(*[node.value for node in nodes])
        for got, want in zip([out.value] + [node.grad for node in nodes], [value] + grads):
            want = np.broadcast_to(want, np.shape(got))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15 * np.abs(want).max())

    @pytest.mark.parametrize("side_hidden, most", [(None, 20), ((16,), 23)])
    def test_objective_is_one_node_per_layer_and_term(self, side_hidden, most):
        # c03's layer widths; a composed objective reaches 46 computed nodes,
        # and 56 with a side head
        model = DeepAaModel(DeepAaArch(input_dim=4, k=3, side_hidden=side_hidden))
        prng = rng_create(37)
        total, _ = model._loss_nodes(prng.standard_normal((6, 4)), prng.uniform(size=6),
                                     1.0, prng.standard_normal((6, 2)))
        computed, stack = set(), [total]
        while stack:
            node = stack.pop()
            if node.parents and id(node) not in computed:
                computed.add(id(node))
                stack.extend(node.parents)
        assert len(computed) <= most


def worst_gradient_error(model, x, y, lam, noise, h=1e-5):
    """c04's check: zero each parameter's gradient, backpropagate the loss
    and return the worst relative error against central differences."""
    def loss_value():
        total, _ = model._loss_nodes(x, y, lam, noise)
        return float(total.value)

    total, _ = model._loss_nodes(x, y, lam, noise)
    for p in model.parameters():
        p.zero_grad()
    total.backward()
    worst = 0.0
    for p in model.parameters():
        fd = np.zeros_like(p.value)
        it = np.nditer(p.value, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p.value[idx]
            p.value[idx] = orig + h
            hi = loss_value()
            p.value[idx] = orig - h
            lo = loss_value()
            p.value[idx] = orig
            fd[idx] = (hi - lo) / (2 * h)
        denom = np.maximum(np.abs(fd), 1e-6)
        worst = max(worst, float(np.max(np.abs(p.grad - fd) / denom)))
    return worst


class TestGradientCheck:
    def test_full_loss_matches_finite_differences(self):
        # central differences at a generic parameter point (relu kinks sit
        # exactly at zero pre-activation for freshly initialized biases, so
        # all parameters are perturbed off their initial values first)
        model = tiny_model(k=3, p=4)
        prng = rng_create(10)
        for p in model.parameters():
            p.value += 0.1 * prng.standard_normal(p.value.shape)
        x = prng.standard_normal((5, 4))
        noise = prng.standard_normal((5, 2))
        assert worst_gradient_error(model, x, None, 1.3, noise) <= 1e-4

    def test_trained_model_keeps_the_gradient_contract(self):
        # after train() every parameter is a view into the optimizer's flat
        # buffers; the per-parameter zero_grad / backward / grad contract and
        # the saved model must not notice
        model = tiny_model(k=3, p=4, side=True, seed=2)
        prng = rng_create(20)
        deep_aa.train(model, Dataset(x=prng.standard_normal((100, 4)),
                                     labels=prng.uniform(size=100)),
                      DeepAaHyper(epochs=2, batch=25, seed=3))
        params = model.parameters()
        values, grads = params[0].value.base, params[0].grad.base
        assert values is not None and all(p.value.base is values for p in params)
        assert grads is not None and all(p.grad.base is grads for p in params)
        x = prng.standard_normal((5, 4))
        y = prng.uniform(size=5)
        noise = prng.standard_normal((5, 2))
        assert worst_gradient_error(model, x, y, 1.3, noise) <= 1e-4
        back = DeepAaModel.from_dict(model.to_dict())
        for got, want in zip(back.encode(x), model.encode(x)):
            np.testing.assert_array_equal(got, want)


class TestTrain:
    def _dataset(self, n=200, p=4, seed=0, labels=False):
        rng = rng_create(seed)
        x = rng.standard_normal((n, p))
        y = rng.uniform(size=n) if labels else None
        return Dataset(x=x, labels=y)

    def test_history_length_and_columns(self):
        model = tiny_model()
        ds = self._dataset()
        deep_aa.train(model, ds, DeepAaHyper(epochs=2, batch=50))
        assert len(model.history) == 2 * (200 // 50)
        assert len(model.history[0]) == len(deep_aa.HISTORY_COLUMNS)
        assert model.trained

    def test_deterministic(self):
        ds = self._dataset()
        m1 = tiny_model(seed=3)
        m2 = tiny_model(seed=3)
        deep_aa.train(m1, ds, DeepAaHyper(epochs=2, batch=64, seed=9))
        deep_aa.train(m2, ds, DeepAaHyper(epochs=2, batch=64, seed=9))
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(p1.value, p2.value)
        assert m1.history == m2.history

    def test_loss_decreases(self):
        model = tiny_model()
        ds = self._dataset(n=500)
        deep_aa.train(model, ds, DeepAaHyper(epochs=10, batch=100))
        hist = np.array(model.history)
        first = hist[:5, 1].mean()
        last = hist[-5:, 1].mean()
        assert last < first

    # batch 2 is below k=3, which warns (test_small_batch_warns checks that)
    @pytest.mark.filterwarnings("ignore:batch size:UserWarning")
    def test_lambda_fixed_without_side_head(self):
        model = tiny_model()
        deep_aa.train(model, self._dataset(n=1200), DeepAaHyper(
            epochs=1, batch=2, lambda0=1.0, lambda_every=100))
        lams = {row[6] for row in model.history}
        assert lams == {1.0}

    @pytest.mark.filterwarnings("ignore:batch size:UserWarning")
    def test_lambda_grows_with_side_head(self):
        model = tiny_model(side=True)
        deep_aa.train(model, self._dataset(n=1200, labels=True), DeepAaHyper(
            epochs=1, batch=2, lambda0=1.0, lambda_growth=1.01, lambda_every=100))
        lams = [row[6] for row in model.history]
        assert lams[0] == 1.0
        assert lams[100] == pytest.approx(1.01)
        assert lams[250] == pytest.approx(1.01**2)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ParameterError):
            deep_aa.train(tiny_model(), Dataset(x=np.zeros((0, 4))),
                          DeepAaHyper())

    def test_small_batch_warns(self):
        with pytest.warns(UserWarning, match="batch size"):
            deep_aa.train(tiny_model(k=3), self._dataset(n=10),
                          DeepAaHyper(epochs=1, batch=2))

    def test_side_head_needs_labels(self):
        with pytest.raises(ParameterError):
            deep_aa.train(tiny_model(side=True), self._dataset(),
                          DeepAaHyper(epochs=1))

    # the 1e300 entry overflows on its way to the non-finite loss
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_restores_parameters(self):
        model = tiny_model()
        before = [p.value.copy() for p in model.parameters()]
        ds = self._dataset()
        ds.x[0, 0] = 1e300  # overflows the squared loss on some batch
        with pytest.raises(NumericalError):
            deep_aa.train(model, ds, DeepAaHyper(epochs=1, batch=200))
        for p, saved in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.value, saved)

    def test_noise_variance_fitted_per_coordinate(self):
        # a noisy segment between two archetypes: column 2 carries no signal
        # and 100x the noise variance of the other columns. The column
        # variance (where the estimate starts) is largest for column 0, so
        # only fitting the residuals makes column 2 the noisiest.
        rng = rng_create(16)
        z = 2.0 * rng.standard_normal((2, 4))
        z[:, 2] = 0.0
        a = rng.dirichlet(np.ones(2), size=400)
        sd = np.array([0.1, 0.1, 1.0, 0.1])
        x = a @ z + sd * rng.standard_normal((400, 4))
        assert np.argmax(x.var(axis=0)) == 0
        model = tiny_model(k=2)
        deep_aa.train(model, Dataset(x=x), DeepAaHyper(epochs=30, batch=50, lr=1e-2))
        assert np.argmax(model.noise_var) == 2
        assert 0.5 < model.noise_var[2] < 2.0

    def test_constant_column_keeps_noise_variance_floored(self):
        ds = self._dataset()
        ds.x[:, 1] = 3.0
        model = tiny_model()
        deep_aa.train(model, ds, DeepAaHyper(epochs=2, batch=50))
        assert np.all(np.isfinite(np.array(model.history)))
        assert model.noise_var.min() >= deep_aa.NOISE_VAR_MIN


class TestGenerateInterpolate:
    def _trained(self):
        rng = rng_create(11)
        model = tiny_model()
        ds = Dataset(x=rng.standard_normal((300, 4)))
        deep_aa.train(model, ds, DeepAaHyper(epochs=2, batch=100))
        return model

    def test_generate_checks_simplex(self):
        model = self._trained()
        with pytest.raises(ParameterError):
            deep_aa.generate(model, np.array([0.5, 0.5, 0.5]))
        with pytest.raises(ParameterError):
            deep_aa.generate(model, np.array([1.2, -0.2, 0.0]))
        with pytest.raises(ParameterError):
            deep_aa.generate(model, np.array([0.5, 0.5]))
        with pytest.raises(ParameterError):
            deep_aa.generate(model, np.array([np.nan, 0.5, 0.5]))

    def test_generate_one_hot_decodes_vertex(self):
        model = self._trained()
        out, y = deep_aa.generate(model, np.array([1.0, 0.0, 0.0]))
        direct, _ = model.decode(model.frame.vertices[0][None, :])
        np.testing.assert_array_equal(out, direct[0])
        assert y is None

    def test_generate_noise_deterministic_given_rng(self):
        model = self._trained()
        a = np.array([0.2, 0.3, 0.5])
        o1, _ = deep_aa.generate(model, a, rng=rng_create(3))
        o2, _ = deep_aa.generate(model, a, rng=rng_create(3))
        np.testing.assert_array_equal(o1, o2)
        o3, _ = deep_aa.generate(model, a)
        assert not np.array_equal(o1, o3)

    def test_interpolate_endpoints_match_generate(self):
        model = self._trained()
        a0 = np.array([1.0, 0.0, 0.0])
        a1 = np.array([0.0, 0.0, 1.0])
        path = deep_aa.interpolate(model, a0, a1, steps=6)
        assert path.shape == (6, 4)
        np.testing.assert_array_equal(path[0], deep_aa.generate(model, a0)[0])
        np.testing.assert_array_equal(path[-1], deep_aa.generate(model, a1)[0])

    def test_interpolate_constant_when_endpoints_equal(self):
        model = self._trained()
        a = np.array([0.3, 0.3, 0.4])
        path = deep_aa.interpolate(model, a, a, steps=4)
        for row in path[1:]:
            np.testing.assert_array_equal(row, path[0])

    def test_interpolate_stays_in_hull(self):
        model = self._trained()
        a0 = np.array([0.8, 0.1, 0.1])
        a1 = np.array([0.1, 0.1, 0.8])
        fractions = np.linspace(0, 1, 7)
        mixtures = np.outer(1 - fractions, a0) + np.outer(fractions, a1)
        assert barycentric_in_hull(model.frame,
                                   mixtures @ model.frame.vertices).all()

    def test_interpolate_rejects_non_finite_weights(self):
        model = self._trained()
        with pytest.raises(ParameterError):
            deep_aa.interpolate(model, np.array([np.nan, 0.0, 1.0]), np.eye(3)[2], 3)
        with pytest.raises(ParameterError):
            deep_aa.interpolate(model, np.eye(3)[0], np.array([np.inf, -np.inf, 1.0]), 3)

    def test_interpolate_needs_two_steps(self):
        with pytest.raises(ParameterError):
            deep_aa.interpolate(self._trained(), np.eye(3)[0], np.eye(3)[1], 1)

    def test_interpolate_needs_integer_steps(self):
        for steps in (2.5, "3", True):
            with pytest.raises(ParameterError, match="field 'steps'"):
                deep_aa.interpolate(tiny_model(), np.eye(3)[0], np.eye(3)[1], steps)

    def test_vertex_recovery_needs_ground_truth(self):
        with pytest.raises(MissingGroundTruth):
            deep_aa.vertex_recovery_report(
                self._trained(), Dataset(x=np.zeros((3, 4)))
            )


class TestSerialization:
    def test_round_trip_preserves_forward_pass(self):
        for activation in ("relu", "tanh"):
            model = tiny_model(side=True, seed=5, activation=activation)
            ds = Dataset(x=rng_create(12).standard_normal((100, 4)),
                         labels=rng_create(13).uniform(size=100))
            deep_aa.train(model, ds, DeepAaHyper(epochs=1, batch=25, at_weight=3.0,
                                                 side_weight=0.5))
            back = DeepAaModel.from_dict(model.to_dict())
            assert back.arch.activation == activation
            probe = rng_create(14).standard_normal((6, 4))
            for got, want in zip(back.encode(probe), model.encode(probe)):
                np.testing.assert_array_equal(got, want)
            _, _, _, mu = model.encode(probe)
            for got, want in zip(back.decode(mu), model.decode(mu)):
                np.testing.assert_array_equal(got, want)
            # the loss depends on the fitted noise variance and the loss weights
            labels = rng_create(16).uniform(size=6)
            assert (loss_values(back, probe, labels, lam=2.0)
                    == loss_values(model, probe, labels, lam=2.0))
            np.testing.assert_array_equal(back.noise_var, model.noise_var)
            np.testing.assert_array_equal(back.median_logvar, model.median_logvar)
            assert back.history == model.history
