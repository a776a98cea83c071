from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archlab import numerics
from archlab.errors import (
    DegenerateError,
    DimensionError,
    NumericalError,
    ParameterError,
    ShapeError,
)


class TestAsMatrix:
    """as_array with the shape of a matrix of any size."""

    def test_accepts_lists(self):
        m = numerics.as_array([[1, 2], [3, 4]], "m", (None, None))
        assert m.dtype == np.float64
        assert m.shape == (2, 2)

    def test_rejects_vectors(self):
        with pytest.raises(ShapeError):
            numerics.as_array([1.0, 2.0], "m", (None, None))

    def test_none_matches_any_length(self):
        assert numerics.as_array(np.zeros((0, 3)), "m", (None, 3)).shape == (0, 3)
        with pytest.raises(ShapeError, match=r"m has shape \(2, 4\), expected \(any, 3\)"):
            numerics.as_array(np.zeros((2, 4)), "m", (None, 3))
        with pytest.raises(ShapeError, match=r"expected \(2, 4\)"):
            numerics.as_array(np.zeros((2, 4, 1)), "m", (2, 4))

    def test_rejects_nan(self):
        with pytest.raises(NumericalError):
            numerics.as_array([[np.nan, 0.0]], "m", (None, None))

    def test_rejects_inf(self):
        with pytest.raises(NumericalError):
            numerics.as_array([[np.inf, 0.0]], "m", (None, None))


class TestRng:
    def test_same_seed_same_stream(self):
        a = numerics.rng_create(42).standard_normal(100)
        b = numerics.rng_create(42).standard_normal(100)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 1.0, True, None, "3"])
    def test_seed_not_a_non_negative_integer_rejected(self, seed):
        with pytest.raises(ParameterError, match="non-negative integer"):
            numerics.rng_create(seed)

    def test_numpy_integer_seed_accepted(self):
        np.testing.assert_array_equal(numerics.rng_create(np.int64(3)).random(4),
                                      numerics.rng_create(3).random(4))

    def test_different_seeds_differ(self):
        a = numerics.rng_create(1).standard_normal(100)
        b = numerics.rng_create(2).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_dirichlet_on_simplex(self):
        w = numerics.rng_dirichlet_matrix(numerics.rng_create(0), [0.5, 1.5, 3.0], 100)
        assert np.all(w >= 0)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_dirichlet_matrix_matches_marginal_mean(self):
        # E[w_j] = alpha_j / sum(alpha)
        rng = numerics.rng_create(7)
        alpha = np.array([1.0, 2.0, 3.0])
        w = numerics.rng_dirichlet_matrix(rng, alpha, 200_000)
        np.testing.assert_allclose(w.mean(axis=0), alpha / alpha.sum(), atol=5e-3)

    def test_dirichlet_row_of_zero_gammas_is_one_hot(self):
        # with alpha 1e-3, every gamma draw of 220 of these rows underflows
        # to 0; each such row puts all its weight on one archetype
        g = numerics.rng_create(0).standard_gamma(np.full((2000, 3), 1e-3))
        dead = g.sum(axis=1) == 0
        assert dead.sum() == 220
        w = numerics.rng_dirichlet_matrix(numerics.rng_create(0), [1e-3] * 3, 2000)
        assert np.all(np.sort(w[dead], axis=1) == [0.0, 0.0, 1.0])
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_dirichlet_rejects_nonpositive(self):
        rng = numerics.rng_create(0)
        with pytest.raises(ParameterError):
            numerics.rng_dirichlet_matrix(rng, [1.0, 0.0], 3)
        with pytest.raises(ParameterError):
            numerics.rng_dirichlet_matrix(rng, [1.0, -1.0], 3)


class TestSimplexVertices:
    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_geometry(self, k):
        frame = numerics.simplex_vertices(k)
        v = frame.vertices
        assert v.shape == (k, k - 1)
        # unit circumradius
        np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
        # centroid at origin
        np.testing.assert_allclose(v.mean(axis=0), 0.0, atol=1e-12)
        # all pairwise distances equal
        dists = [
            np.linalg.norm(v[i] - v[j]) for i in range(k) for j in range(i + 1, k)
        ]
        np.testing.assert_allclose(dists, dists[0], atol=1e-12)

    def test_k2_is_plus_minus_one(self):
        v = numerics.simplex_vertices(2).vertices
        np.testing.assert_allclose(np.sort(v[:, 0]), [-1.0, 1.0], atol=1e-12)

    def test_pairwise_dot_is_minus_one_over_km1(self):
        # unit vectors from the centroid of a regular simplex: <v_i, v_j> = -1/(k-1)
        for k in (3, 4, 5):
            v = numerics.simplex_vertices(k).vertices
            gram = v @ v.T
            off = gram[~np.eye(k, dtype=bool)]
            np.testing.assert_allclose(off, -1.0 / (k - 1), atol=1e-12)

    def test_rejects_k1(self):
        with pytest.raises(DimensionError):
            numerics.simplex_vertices(1)


def barycentric_in_hull(frame, points, tol=1e-9):
    """True per point iff it lies in the convex hull of the frame vertices
    (test oracle). The frame vertices plus the constant-1 coordinate form
    an invertible system, so barycentric coordinates are exact."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    k = frame.k
    system = np.hstack([frame.vertices, np.ones((k, 1))])  # (k, k)
    rhs = np.hstack([points, np.ones((points.shape[0], 1))])  # (m, k)
    coords = np.linalg.solve(system.T, rhs.T).T
    return np.all(coords >= -tol, axis=1)


class TestBarycentricInHull:
    def test_vertices_and_centroid_inside(self):
        frame = numerics.simplex_vertices(4)
        pts = np.vstack([frame.vertices, frame.vertices.mean(axis=0)])
        assert barycentric_in_hull(frame, pts).all()

    def test_outside_point(self):
        frame = numerics.simplex_vertices(3)
        outside = frame.vertices[0] * 1.5
        assert not barycentric_in_hull(frame, outside)[0]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_convex_mixtures_always_inside(self, seed):
        frame = numerics.simplex_vertices(4)
        rng = numerics.rng_create(seed)
        w = numerics.rng_dirichlet_matrix(rng, np.ones(4), 20)
        assert barycentric_in_hull(frame, w @ frame.vertices).all()


class TestPca:
    def test_exact_recovery_low_rank(self):
        rng = numerics.rng_create(3)
        basis = np.linalg.qr(rng.standard_normal((6, 6)))[0][:, :2].T
        scores = rng.standard_normal((200, 2)) * np.array([3.0, 1.0])
        x = scores @ basis + 5.0
        model = numerics.pca_fit(x, 2)
        np.testing.assert_allclose(
            numerics.pca_project(model, x) @ model.components + model.mean,
            x,
            atol=1e-9,
        )

    def test_explained_variance_ordering(self):
        rng = numerics.rng_create(4)
        x = rng.standard_normal((500, 5)) * np.array([5.0, 3.0, 1.0, 0.5, 0.1])
        model = numerics.pca_fit(x, 5)
        assert np.all(np.diff(model.explained_variance) <= 1e-12)

    def test_known_diagonal_covariance(self):
        # axis-aligned data: components are coordinate axes, variances match
        rng = numerics.rng_create(5)
        stds = np.array([4.0, 2.0, 1.0])
        x = rng.standard_normal((100_000, 3)) * stds
        model = numerics.pca_fit(x, 3)
        np.testing.assert_allclose(
            np.abs(model.components), np.eye(3), atol=2e-2
        )
        np.testing.assert_allclose(
            model.explained_variance, stds**2, rtol=3e-2
        )

    def test_deterministic_sign(self):
        x = numerics.rng_create(6).standard_normal((50, 4))
        m1 = numerics.pca_fit(x, 3)
        m2 = numerics.pca_fit(x.copy(), 3)
        np.testing.assert_array_equal(m1.components, m2.components)
        for row in m1.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_rejects_constant_data(self):
        with pytest.raises(DegenerateError):
            numerics.pca_fit(np.ones((10, 3)), 1)

    def test_rejects_bad_q(self):
        x = numerics.rng_create(0).standard_normal((10, 3))
        with pytest.raises(DimensionError):
            numerics.pca_fit(x, 0)
        with pytest.raises(DimensionError):
            numerics.pca_fit(x, 4)


class TestMatchRows:
    def test_identity_permutation(self):
        truth = np.arange(12.0).reshape(4, 3)
        perm, errors = numerics.match_rows(truth.copy(), truth)
        assert perm == [0, 1, 2, 3]
        np.testing.assert_allclose(errors, 0.0, atol=1e-15)

    def test_recovers_shuffle(self):
        rng = numerics.rng_create(9)
        truth = rng.standard_normal((5, 4))
        shuffle = [3, 0, 4, 1, 2]
        est = truth[shuffle]
        perm, errors = numerics.match_rows(est, truth)
        # est[perm[i]] should equal truth[i]
        np.testing.assert_allclose(est[perm], truth, atol=1e-15)
        np.testing.assert_allclose(errors, 0.0, atol=1e-15)

    def test_reports_per_row_error(self):
        truth = np.zeros((2, 2))
        est = np.array([[0.1, 0.1], [1.0, 1.0]])
        _, errors = numerics.match_rows(est, truth)
        np.testing.assert_allclose(np.sort(errors), [0.1, 1.0], atol=1e-12)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            numerics.match_rows(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_tie_goes_to_first_permutation(self):
        # (1, 0, 2) and (2, 0, 1) both total 5
        cost = np.array([[3.0, 1.0, 1.0], [1.0, 3.0, 3.0], [3.0, 3.0, 3.0]])
        assert numerics.best_assignment(cost) == [1, 0, 2]

    def test_matches_ten_rows(self):
        rng = numerics.rng_create(10)
        truth = rng.standard_normal((10, 4))
        shuffle = [4, 9, 0, 7, 2, 8, 1, 6, 3, 5]
        perm, errors = numerics.match_rows(truth[shuffle], truth)
        assert [shuffle[i] for i in perm] == list(range(10))
        np.testing.assert_allclose(errors, 0.0, atol=1e-15)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_agrees_with_exhaustive_search(self, k):
        # the first permutation in lexicographic order with the least
        # total, summed in row order; integer costs make exact ties common
        rng = numerics.rng_create(20 + k)
        for trial in range(30):
            cost = rng.random((k, k)) if trial % 2 else rng.integers(0, 3, (k, k)) * 1.0
            expected = min(permutations(range(k)),
                           key=lambda perm: sum(cost[j][perm[j]] for j in range(k)))
            assert numerics.best_assignment(cost) == list(expected)
