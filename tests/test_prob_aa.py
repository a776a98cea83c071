import numpy as np
import pytest

from archlab import prob_aa
from archlab.errors import ParameterError


Z = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])


class TestConfig:
    def test_default_alpha_is_uniform_one_over_k(self):
        np.testing.assert_allclose(prob_aa.default_alpha(4), 0.25)
        cfg = prob_aa.ProbAaConfig(k=3, z_true=Z)
        np.testing.assert_allclose(cfg.alpha, 1.0 / 3.0)

    def test_rejects_mismatched_k(self):
        with pytest.raises(ParameterError):
            prob_aa.ProbAaConfig(k=2, z_true=Z)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ParameterError):
            prob_aa.ProbAaConfig(k=3, z_true=Z, sigma2=-0.1)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ParameterError):
            prob_aa.ProbAaConfig(k=3, z_true=Z, alpha=np.array([1.0, 1.0]))
        with pytest.raises(ParameterError):
            prob_aa.ProbAaConfig(k=3, z_true=Z, alpha=np.array([1.0, 0.0, 1.0]))


class TestSample:
    def test_shapes_and_simplex_rows(self):
        cfg = prob_aa.ProbAaConfig(k=3, z_true=Z)
        x, a = prob_aa.sample(cfg, 500, seed=0)
        assert x.shape == (500, 2)
        assert a.shape == (500, 3)
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(a >= 0)

    def test_deterministic(self):
        cfg = prob_aa.ProbAaConfig(k=3, z_true=Z)
        x1, a1 = prob_aa.sample(cfg, 100, seed=3)
        x2, a2 = prob_aa.sample(cfg, 100, seed=3)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(a1, a2)

    def test_noiseless_rows_in_hull(self):
        cfg = prob_aa.ProbAaConfig(k=3, z_true=Z, sigma2=0.0)
        x, a = prob_aa.sample(cfg, 200, seed=1)
        np.testing.assert_allclose(x, a @ Z, atol=1e-12)

    def test_empty_sample(self):
        cfg = prob_aa.ProbAaConfig(k=3, z_true=Z)
        x, a = prob_aa.sample(cfg, 0, seed=0)
        assert x.shape == (0, 2)
        assert a.shape == (0, 3)

    def test_noise_variance_matches_sigma2(self):
        cfg = prob_aa.ProbAaConfig(k=3, z_true=Z, sigma2=0.05)
        x, a = prob_aa.sample(cfg, 100_000, seed=5)
        resid = x - a @ Z
        assert np.var(resid) == pytest.approx(0.05, rel=2e-2)

    def test_mixture_mean_matches_dirichlet(self):
        # with uniform alpha the mean weight on each archetype is 1/k
        cfg = prob_aa.ProbAaConfig(k=3, z_true=Z)
        _, a = prob_aa.sample(cfg, 100_000, seed=6)
        np.testing.assert_allclose(a.mean(axis=0), 1.0 / 3.0, atol=5e-3)

    def test_small_alpha_concentrates_on_vertices(self):
        # alpha_j = 1/k puts most mass near the simplex corners
        cfg = prob_aa.ProbAaConfig(k=3, z_true=Z)
        _, a = prob_aa.sample(cfg, 10_000, seed=7)
        assert np.mean(a.max(axis=1) > 0.9) > 0.25
