import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archlab import linear_aa, numerics
from archlab.errors import DimensionError, ParameterError
from archlab.numerics import rng_create


def simplex_grid(step=0.02):
    """All (w, 1-w) pairs on the 1-simplex with the given resolution."""
    w = np.arange(0.0, 1.0 + step / 2, step)
    return np.stack([w, 1.0 - w], axis=1)


def kkt_spread(x, z, a):
    """Per row, how far the gradient on the support rises above its minimum,
    relative to the gradient's size; 0 at the simplex-constrained optimum."""
    g = (a @ z - x) @ z.T
    spread = np.where(a > 0.0, g, -np.inf).max(axis=1) - g.min(axis=1)
    return spread / (1.0 + np.abs(g).max(axis=1))


def enumerated_objectives(x, z):
    """min ||x_i - a Z||^2 over the simplex by trying every support: the
    optimum on an affinely independent support solves its KKT system, and
    the best feasible one is the global optimum."""
    k = len(z)
    best = np.full(len(x), np.inf)
    for size in range(1, k + 1):
        for support in itertools.combinations(range(k), size):
            zs = z[list(support)]
            kkt = np.ones((size + 1, size + 1))
            kkt[:size, :size] = zs @ zs.T
            kkt[size, size] = 0.0
            rhs = np.vstack([zs @ x.T, np.ones(len(x))])
            try:
                weights = np.linalg.solve(kkt, rhs)[:size].T
            except np.linalg.LinAlgError:  # affinely dependent: a smaller support has the optimum
                continue
            obj = np.sum((x - weights @ zs) ** 2, axis=1)
            best = np.where(np.all(weights >= 0.0, axis=1) & (obj < best), obj, best)
    return best


def brute_force_rss(x, k, step=0.02):
    """Exhaustive archetypal analysis for k <= 2 on a dense simplex grid.

    Enumerates B rows over the grid of convex combinations of data rows
    (k=1: single rows and pairs; k=2: all grid pairs), then optimizes A
    over the same grid per row. Global minimum up to grid resolution.
    """
    n = x.shape[0]
    if k == 1:
        candidates = []
        for i in range(n):
            candidates.append(x[i])
        for i in range(n):
            for j in range(i + 1, n):
                for w in np.arange(step, 1.0, step):
                    candidates.append(w * x[i] + (1 - w) * x[j])
        best = np.inf
        for z in candidates:
            best = min(best, float(np.sum((x - z) ** 2)))
        return best

    assert k == 2
    # candidate archetypes: convex combinations of at most two data rows
    cand = [x[i] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for w in np.arange(step, 1.0, step):
                cand.append(w * x[i] + (1 - w) * x[j])
    cand = np.array(cand)
    mix = simplex_grid(step)  # A-row candidates
    best = np.inf
    for i in range(len(cand)):
        for j in range(i, len(cand)):
            z = np.stack([cand[i], cand[j]])
            recon = mix @ z  # every grid mixture of this archetype pair
            d = ((x[:, None, :] - recon[None, :, :]) ** 2).sum(axis=2)
            best = min(best, float(d.min(axis=1).sum()))
    return best


def pairwise_fw_row_step(grad_row, current, quadratic):
    """One pairwise Frank-Wolfe step on the unit simplex for a quadratic
    objective (scalar test oracle for the solver's batched step).

    The objective is f(x) = x' Q x + c' x with Q = ``quadratic`` (PSD) and
    gradient ``grad_row`` at ``current``. Weight moves from the away atom,
    the support coordinate with the highest gradient, to the toward atom,
    the coordinate with the lowest gradient; both break ties to the lowest
    index. The step size is the exact minimizer of f along that direction,
    capped at the away atom's weight.
    """
    toward = int(np.argmin(grad_row))
    support = np.flatnonzero(current > 0.0)
    away = int(support[np.argmax(grad_row[support])])
    direction = np.zeros_like(current)
    direction[toward] += 1.0
    direction[away] -= 1.0
    slope = float(grad_row @ direction)
    if slope >= 0.0:
        return current
    curvature = float(direction @ quadratic @ direction)
    cap = float(current[away])
    gamma = cap if curvature <= 0.0 else min(cap, -slope / (2.0 * curvature))
    out = current.copy()
    out[away] -= gamma
    out[toward] += gamma
    return out


class TestFwRowStep:
    def test_stays_on_simplex(self):
        rng = rng_create(0)
        q = np.eye(3)
        current = np.array([0.2, 0.3, 0.5])
        grad = rng.standard_normal(3)
        out = pairwise_fw_row_step(grad, current, q)
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out >= 0)

    def test_no_move_at_optimum(self):
        # gradient uniform: every pairwise direction has slope 0
        current = np.array([0.5, 0.5])
        out = pairwise_fw_row_step(np.array([1.0, 1.0]), current, np.eye(2))
        np.testing.assert_array_equal(out, current)

    def test_tie_breaks_lowest_index(self):
        # toward atoms 0 and 1 tie, away atoms 2 and 3 tie; with no
        # curvature the step takes all of the away atom's weight
        current = np.array([0.0, 0.0, 0.5, 0.5])
        grad = np.array([-1.0, -1.0, 1.0, 1.0])
        out = pairwise_fw_row_step(grad, current, np.zeros((4, 4)))
        np.testing.assert_array_equal(out, [0.5, 0.0, 0.0, 0.5])

    def test_exact_line_search_quadratic(self):
        # minimize ||b - x||^2 over the line from e2 toward e1 with Q = I:
        # optimum gamma = -slope/(2*curvature), inside the cap
        q = np.eye(2)
        target = np.array([0.7, 0.3])
        current = np.array([0.0, 1.0])
        out = pairwise_fw_row_step(2 * (current - target), current, q)
        np.testing.assert_allclose(out, target, atol=1e-12)
        # a target beyond e1: the step stops at the away atom's weight
        target = np.array([1.5, -0.5])
        current = np.array([0.2, 0.8])
        out = pairwise_fw_row_step(2 * (current - target), current, q)
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_drop_step_reaches_face_exactly(self):
        # the target lies beyond the edge between atoms 1 and 2, so the
        # optimum is on that edge; from an interior start the weight of
        # atom 0 becomes exactly zero, which a plain Frank-Wolfe step,
        # scaling every weight by 1 - gamma, reaches only with gamma = 1
        z = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        start = np.array([[0.2, 0.4, 0.4], [0.6, 0.3, 0.1]])
        target = np.array([[1.0, 1.0], [1.0, 1.0]])
        w = np.array([linear_aa._fw_row(row, z, t, 4) for row, t in zip(start, target)])
        np.testing.assert_array_equal(w[:, 0], 0.0)
        np.testing.assert_allclose(w, [[0.0, 0.5, 0.5]] * 2, atol=1e-12)
        np.testing.assert_array_equal(start[0], [0.2, 0.4, 0.4])  # input kept

    def test_batched_step_matches_scalar_oracle(self):
        # an A-block: Z has orthogonal integer rows with Z Z' = 4 I, and
        # rows on a grid of quarters keep A Z exact, so the even rows given
        # x = A Z - g Z / 4 have a half gradient of exactly g, with ties at
        # its minimum and at its maximum
        rng = rng_create(13)
        n, k = 40, 4
        z = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]],
                     dtype=float)
        q = z @ z.T
        a = np.array([np.bincount(rng.integers(k, size=4), minlength=k) / 4.0
                      for _ in range(n)])
        x = rng.standard_normal((n, 4))
        ties = rng.permuted(np.tile([-1.0, -1.0, 1.0, 1.0], (n // 2, 1)), axis=1)
        x[::2] = a[::2] @ z - ties @ z / 4.0
        # some rows hold weight on both maximal atoms: the away atom ties
        assert np.sum(np.all(a[::2][ties == 1.0].reshape(-1, 2) > 0, axis=1)) >= 3
        for a_row, x_row in zip(a, x):
            row = linear_aa._fw_row(a_row, z, x_row, 1)
            oracle = pairwise_fw_row_step(2.0 * (a_row @ q - z @ x_row), a_row, q)
            np.testing.assert_allclose(row, oracle, atol=1e-12)

    def test_b_row_step_matches_scalar_oracle(self):
        # B-rows: simplex weights over the 7 rows of X with Q = X X', each
        # row pulled towards its own target point
        rng = rng_create(14)
        x = rng.standard_normal((7, 3))
        q = x @ x.T
        b = numerics.rng_dirichlet_matrix(rng, np.ones(7), 20)
        target = rng.standard_normal((20, 3))
        for b_row, t_row in zip(b, target):
            row = linear_aa._fw_row(b_row, x, t_row, 1)
            oracle = pairwise_fw_row_step(2.0 * (b_row @ q - x @ t_row), b_row, q)
            np.testing.assert_allclose(row, oracle, atol=1e-12)


def simplex_projection(v):
    """Euclidean projection of the vector ``v`` onto the unit simplex
    (sort-based), the rule that ``_extrapolate`` does not use."""
    u = np.sort(v)[::-1]
    excess = np.cumsum(u) - 1.0
    rho = np.nonzero(u - excess / np.arange(1, v.size + 1) > 0.0)[0][-1]
    return np.maximum(v - excess[rho] / (rho + 1), 0.0)


class TestExtrapolate:
    def test_rows_stay_on_simplex(self):
        rng = rng_create(15)
        new = numerics.rng_dirichlet_matrix(rng, np.full(6, 0.5), 30)
        old = numerics.rng_dirichlet_matrix(rng, np.full(6, 0.5), 30)
        for beta in (0.5, 1.0, 4.0):
            w = linear_aa._extrapolate(new, old, beta)
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(w >= 0.0)

    def test_beta_zero_returns_new(self):
        rng = rng_create(16)
        new = numerics.rng_dirichlet_matrix(rng, np.ones(5), 10)
        old = numerics.rng_dirichlet_matrix(rng, np.ones(5), 10)
        np.testing.assert_allclose(linear_aa._extrapolate(new, old, 0.0), new,
                                   rtol=0.0, atol=1e-15)

    def test_weight_zero_in_both_stays_zero(self):
        # 1 000 atoms with support {0, 1}; rounding leaves the extrapolated
        # row just under sum 1, where the Euclidean projection would lift
        # all 998 unused weights off zero and a pairwise step, adding or
        # dropping one atom at a time, could not clear them again
        old = np.zeros((1, 1000))
        new = np.zeros((1, 1000))
        old[0, :2] = [0.5, 0.5]
        new[0, :2] = [0.6, 0.4 - 2.0**-40]
        point = new[0] + (new[0] - old[0])
        assert 1.0 - 1e-11 < point.sum() < 1.0
        assert np.count_nonzero(simplex_projection(point)) == 1000
        w = linear_aa._extrapolate(new, old, 1.0)
        np.testing.assert_array_equal(w[0, 2:], 0.0)
        np.testing.assert_allclose(w[0, :2], [0.7, 0.3], atol=1e-11)

    def test_fit_with_accepted_steps_keeps_invariants(self, monkeypatch):
        extrapolate, betas = linear_aa._extrapolate, []

        def recording(new, old, beta):
            betas.append(beta)
            return extrapolate(new, old, beta)

        monkeypatch.setattr(linear_aa, "_extrapolate", recording)
        x = rng_create(17).standard_normal((200, 4))
        model = linear_aa.fit_linear_aa(x, linear_aa.LinearAaConfig(k=4))
        assert max(betas) > 1.0  # beta grows only after an accepted point
        assert np.all(np.diff(model.rss_history) <= 1e-9)
        np.testing.assert_array_equal(model.z, model.b @ x)


class TestAStep:
    def test_each_a_step_is_exact(self, monkeypatch):
        active_set, steps = linear_aa._active_set, []

        def recording(a, x, z):
            out = active_set(a, x, z)
            steps.append((a.T.copy(), z.copy(), out[0].T.copy(), len(out[1])))
            return out

        monkeypatch.setattr(linear_aa, "_active_set", recording)
        x = rng_create(18).standard_normal((300, 4))
        model = linear_aa.fit_linear_aa(x, linear_aa.LinearAaConfig(k=4, max_outer_iters=15))
        assert len(steps) == model.iterations == 15
        for start, z, a, uncertified in steps:
            assert uncertified == 0
            np.testing.assert_allclose(a.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
            assert np.all(a >= 0.0)
            assert kkt_spread(x, z, a).max() <= 1e-10
            before, after = (np.sum((x - w @ z) ** 2, axis=1) for w in (start, a))
            assert np.all(after <= before * (1.0 + 1e-12) + 1e-12)


class TestFurthestSum:
    def test_selects_spread_points(self):
        # three tight clusters; one index from each must be chosen
        rng = rng_create(1)
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        x = np.vstack([c + 0.01 * rng.standard_normal((20, 2)) for c in centers])
        idx = linear_aa.furthest_sum_indices(x, 3, seed=0)
        assert len(set(i // 20 for i in idx)) == 3

    def test_deterministic(self):
        x = rng_create(2).standard_normal((50, 3))
        i1 = linear_aa.furthest_sum_indices(x, 4, seed=7)
        i2 = linear_aa.furthest_sum_indices(x, 4, seed=7)
        np.testing.assert_array_equal(i1, i2)

    def test_unique_indices(self):
        x = rng_create(3).standard_normal((30, 2))
        idx = linear_aa.furthest_sum_indices(x, 5, seed=0)
        assert len(set(idx.tolist())) == 5

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_matches_sums_over_all_picks(self, k):
        # every pick maximizes the distance summed over the current picks,
        # here summed afresh for each pick from an (n, picks, p) array
        x = rng_create(4).standard_normal((200, 4))
        chosen = [int(rng_create(9).integers(len(x)))]
        for pick in range(k if k > 1 else 0):
            if pick == k - 1:
                chosen.pop(0)
            d = np.linalg.norm(x[:, None, :] - x[chosen], axis=2).sum(axis=1)
            d[chosen] = -np.inf
            chosen.append(int(np.argmax(d)))
        np.testing.assert_array_equal(linear_aa.furthest_sum_indices(x, k, seed=9), chosen)

    def test_peak_memory_grows_with_the_data_not_with_k(self):
        x = rng_create(5).standard_normal((4000, 64))
        tracemalloc.start()
        try:
            linear_aa.furthest_sum_indices(x, 5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * x.nbytes


class TestFit:
    def test_k1_single_archetype_oracle(self):
        # two points at +-1: best single archetype is a data row (B is a
        # simplex row over data, optimum at either row), rss = |2e|^2 = 4? No:
        # archetype z minimizes sum ||x_i - z||^2 over the segment, optimum at
        # midpoint 0 giving rss 2; reachable since B mixes both rows.
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        model = linear_aa.fit_linear_aa(x, linear_aa.LinearAaConfig(k=1))
        assert model.rss == pytest.approx(2.0, abs=1e-6)
        np.testing.assert_allclose(model.z, [[0.0, 0.0]], atol=1e-6)

    def test_exact_recovery_noiseless_triangle(self):
        # data inside a triangle with the corners present as data rows
        rng = rng_create(4)
        z_true = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        w = numerics.rng_dirichlet_matrix(rng, np.ones(3), 200)
        x = np.vstack([z_true, w @ z_true])
        model = linear_aa.fit_linear_aa(
            x, linear_aa.LinearAaConfig(k=3, max_outer_iters=3000, rel_tol=1e-12)
        )
        assert model.rss < 1e-4
        _, errors = numerics.match_rows(model.z, z_true)
        assert errors.max() < 1e-2

    def test_rss_monotone_history(self):
        x = rng_create(5).standard_normal((100, 4))
        model = linear_aa.fit_linear_aa(x, linear_aa.LinearAaConfig(k=3))
        hist = np.array(model.rss_history)
        assert np.all(np.diff(hist) <= 1e-9)
        assert model.rss == pytest.approx(hist[-1])

    def test_rows_stay_stochastic(self):
        x = rng_create(6).standard_normal((50, 3))
        model = linear_aa.fit_linear_aa(x, linear_aa.LinearAaConfig(k=4))
        np.testing.assert_allclose(model.a.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(model.b.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(model.a >= -1e-12)
        assert np.all(model.b >= -1e-12)

    def test_z_is_b_times_x(self):
        x = rng_create(7).standard_normal((40, 3))
        model = linear_aa.fit_linear_aa(x, linear_aa.LinearAaConfig(k=2))
        np.testing.assert_allclose(model.z, model.b @ x, atol=1e-12)

    def test_deterministic_given_seed(self):
        x = rng_create(8).standard_normal((60, 3))
        m1 = linear_aa.fit_linear_aa(x, linear_aa.LinearAaConfig(k=3, seed=5))
        m2 = linear_aa.fit_linear_aa(x, linear_aa.LinearAaConfig(k=3, seed=5))
        np.testing.assert_array_equal(m1.a, m2.a)
        np.testing.assert_array_equal(m1.b, m2.b)

    def test_more_archetypes_never_worse(self):
        x = rng_create(9).standard_normal((80, 4))
        rss = [
            linear_aa.fit_linear_aa(x, linear_aa.LinearAaConfig(k=k)).rss
            for k in (1, 2, 4, 8)
        ]
        assert all(b <= a * (1 + 1e-6) for a, b in zip(rss, rss[1:]))

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(DimensionError):
            linear_aa.fit_linear_aa(np.zeros((2, 2)), linear_aa.LinearAaConfig(k=3))

    def test_bad_config_rejected(self):
        with pytest.raises(ParameterError):
            linear_aa.LinearAaConfig(k=0)
        with pytest.raises(ParameterError):
            linear_aa.LinearAaConfig(k=1, rel_tol=0.0)
        with pytest.raises(ParameterError):
            linear_aa.LinearAaConfig(k=1, rel_tol=float("nan"))
        with pytest.raises(ParameterError):
            linear_aa.LinearAaConfig(k=1, max_outer_iters=-5)


class TestOracle:
    """Solver RSS vs exhaustive grid search on tiny instances."""

    @pytest.mark.parametrize("instance", range(10))
    def test_matches_brute_force(self, instance):
        rng = rng_create(100 + instance)
        n = int(rng.integers(3, 7))
        p = int(rng.integers(1, 3))
        k = int(rng.integers(1, 3))
        x = rng.standard_normal((n, p))
        model = linear_aa.fit_linear_aa(
            x, linear_aa.LinearAaConfig(k=k, max_outer_iters=2000, rel_tol=1e-12)
        )
        oracle = brute_force_rss(x, k)
        # the grid oracle overestimates the optimum by at most its resolution;
        # the solver must come within 1e-4 of (or beat) the grid value
        assert model.rss <= oracle + 1e-4


class TestTransform:
    def test_recovers_weights_for_interior_points(self):
        rng = rng_create(11)
        z = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        w = numerics.rng_dirichlet_matrix(rng, np.full(3, 2.0), 50)
        a = linear_aa.transform(w @ z, z)
        np.testing.assert_allclose(a @ z, w @ z, atol=1e-4)

    def test_rows_on_simplex(self):
        rng = rng_create(12)
        a = linear_aa.transform(rng.standard_normal((30, 3)),
                                rng.standard_normal((4, 3)))
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(a >= -1e-12)

    @pytest.mark.parametrize("k", range(1, 21))
    def test_kkt_conditions_for_every_k(self, k):
        rng = rng_create(100 + k)
        for p in (3, 16):  # k > p + 1 from k = 5 on at p = 3
            z = rng.standard_normal((k, p))
            x = 1.5 * rng.standard_normal((200, p))
            a = linear_aa.transform(x, z)
            np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(a >= 0.0)
            assert kkt_spread(x, z, a).max() <= 1e-10
            w = numerics.rng_dirichlet_matrix(rng, np.full(k, 2.0), 50)
            np.testing.assert_allclose(linear_aa.transform(w @ z, z) @ z, w @ z, atol=1e-10)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_objective_matches_support_enumeration(self, k):
        rng = rng_create(200 + k)
        for p in (2, 5, 16):
            z = rng.standard_normal((k, p))
            x = 1.5 * rng.standard_normal((100, p))
            a = linear_aa.transform(x, z)
            np.testing.assert_allclose(np.sum((x - a @ z) ** 2, axis=1),
                                       enumerated_objectives(x, z), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("case", ["duplicate", "midpoint", "k>p+1", "k=1"])
    def test_degenerate_archetypes(self, case):
        rng = rng_create(14)
        base = rng.standard_normal((3, 3))
        z = {"duplicate": np.vstack([base, base[1]]),
             "midpoint": np.vstack([base, (base[0] + base[2]) / 2.0]),
             "k>p+1": rng.standard_normal((6, 2)),
             "k=1": base[:1]}[case]
        x = np.vstack([2.0 * rng.standard_normal((300, z.shape[1])), z,
                       (z[0] + z[-1]) / 2.0])
        a = linear_aa.transform(x, z)
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(a >= 0.0)
        assert kkt_spread(x, z, a).max() <= 1e-10
        np.testing.assert_allclose(np.sum((x - a @ z) ** 2, axis=1),
                                   enumerated_objectives(x, z), rtol=1e-12, atol=1e-12)

    def test_nearly_affinely_dependent_archetypes(self):
        # a fourth archetype on the edge between z_1 and z_2, moved off it by
        # eps (z_0 - z_1) with eps from 1e-7 to 1e-3: a support holding all
        # four has a KKT matrix with a condition number up to about 4e16, and
        # its LU solution can be far from solving the system
        for seed in range(60):
            rng = np.random.default_rng(seed)
            base = 6.0 * rng.standard_normal((3, 4))
            eps, t = 10.0 ** -rng.uniform(3, 7), rng.uniform(0.2, 0.8)
            z = np.vstack([base, (1 - t) * base[1] + t * base[2] + eps * (base[0] - base[1])])
            x = rng.dirichlet(np.full(4, 0.3), size=400) @ z
            a = linear_aa.transform(x, z)  # an uncertified row would warn, and fail
            np.testing.assert_allclose(a.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
            assert np.all(a >= 0.0)
            excess = np.sum((x - a @ z) ** 2, axis=1) - enumerated_objectives(x, z)
            assert np.all(excess <= 2e-10 * (np.sum(x**2, axis=1) + np.sum(z**2, axis=1).max()))

    def test_singular_support_system_is_solved_not_skipped(self, monkeypatch):
        rng = rng_create(15)
        z, x = rng.standard_normal((5, 3)), rng.standard_normal((100, 3))
        expected = enumerated_objectives(x, z)

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")
        # every KKT solve fails as a singular one does; least squares must stand in
        monkeypatch.setattr(np.linalg, "solve", singular)
        a = linear_aa.transform(x, z)
        assert kkt_spread(x, z, a).max() <= 1e-10
        np.testing.assert_allclose(np.sum((x - a @ z) ** 2, axis=1), expected,
                                   rtol=1e-12, atol=1e-12)

    def test_rows_off_the_simplex_are_never_certified(self, monkeypatch):
        # every support solve fails and its stand-in returns zero weights, so
        # the rows that need a solve leave the simplex: a zero row has no
        # support and hence no gradient on it to reject
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        monkeypatch.setattr(np.linalg, "lstsq", lambda kkt, rhs, rcond: (np.zeros_like(rhs),))
        z = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        x = np.array([[0.0, 0.0], [0.25, 0.25], [0.3, 0.5]])
        with pytest.warns(UserWarning, match=r"2 rows not certified optimal, among them \[1, 2\]$"):
            a = linear_aa.transform(x, z)
        np.testing.assert_array_equal(a[0], [1.0, 0.0, 0.0])

    def test_rows_left_uncertified_are_named(self, monkeypatch):
        monkeypatch.setattr(linear_aa, "_ROUNDS_PER_ATOM", 0)
        z = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        x = np.array([[0.0, 0.0], [0.25, 0.25], [2.0, 0.0], [0.6, 0.3]])
        with pytest.warns(UserWarning, match=r"2 rows not certified optimal, among them \[1, 3\]$"):
            a = linear_aa.transform(x, z)
        np.testing.assert_array_equal(a, np.eye(3)[[0, 0, 1, 1]])  # each at its nearest vertex
        with pytest.warns(UserWarning, match=r"24 rows .* among them \[0, 1, .*, 9\]$"):
            linear_aa.transform(np.tile([0.6, 0.3], (24, 1)), z)  # a long list is cut at 10

    def test_empty_inputs(self):
        assert linear_aa.transform(np.ones((0, 3)), np.ones((4, 3))).shape == (0, 4)
        with pytest.raises(DimensionError, match="no rows"):
            linear_aa.transform(np.ones((5, 3)), np.ones((0, 3)))

    @pytest.mark.parametrize("k", [1, 3, 14])
    def test_column_mismatch_rejected(self, k):
        # the width check precedes the solver, which takes one path for every k
        with pytest.raises(DimensionError, match="columns"):
            linear_aa.transform(np.ones((5, 3)), np.ones((k, 4)))


class TestProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_fit_invariants_random_instances(self, seed):
        rng = rng_create(seed)
        n = int(rng.integers(5, 30))
        p = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(n, 5)))
        x = rng.standard_normal((n, p))
        model = linear_aa.fit_linear_aa(x, linear_aa.LinearAaConfig(k=k))
        hist = np.array(model.rss_history)
        assert np.all(np.diff(hist) <= 1e-9)  # monotone descent
        assert model.rss >= -1e-12
        np.testing.assert_allclose(model.a.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(model.b.sum(axis=1), 1.0, atol=1e-9)
        # reconstruction consistency
        rss = float(np.sum((x - model.a @ (model.b @ x)) ** 2))
        assert rss == pytest.approx(model.rss, rel=1e-9, abs=1e-9)
