import numpy as np
import pytest

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

        def loss_value():
            total, _ = model._loss_nodes(x, None, 1.3, noise)
            return float(total.value)

        total, _ = model._loss_nodes(x, None, 1.3, noise)
        for p in model.parameters():
            p.zero_grad()
        total.backward()
        h = 1e-5
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
        assert worst <= 1e-4


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
        o1, _ = deep_aa.generate(model, a, rng=rng_create(3), use_noise=True)
        o2, _ = deep_aa.generate(model, a, rng=rng_create(3), use_noise=True)
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
