"""Linear archetypal analysis: X ~ A B X with row-stochastic A and B.

The solver alternates between the two weight blocks. With B (hence the
archetypes Z = B X) fixed, every row of A has an independent quadratic
subproblem on the unit simplex, solved with a few Frank-Wolfe steps with
exact line search. With A fixed, each row of B is updated the same way,
cycling through the k rows. Every iterate stays feasible and the RSS is
non-increasing by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericalError, ParameterError, check_fields
from .numerics import as_matrix, check_finite, rng_create

_INNER_FW_STEPS = 10


@dataclass(frozen=True)
class LinearAaConfig:
    k: int
    max_outer_iters: int = 500
    rel_tol: float = 1e-6
    init: str = "furthest_sum"  # or "random_rows"
    seed: int = 0

    def __post_init__(self):
        check_fields(self, int, "k", "max_outer_iters", "seed")
        check_fields(self, float, "rel_tol")
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        if self.rel_tol <= 0:
            raise ParameterError("rel_tol must be > 0")
        if self.init not in ("furthest_sum", "random_rows"):
            raise ParameterError(f"unknown init '{self.init}'")


@dataclass
class LinearAaModel:
    a: np.ndarray  # (n, k), rows on the simplex
    b: np.ndarray  # (k, n), rows on the simplex
    z: np.ndarray  # (k, p), archetypes, exactly B @ X
    rss: float
    iterations: int
    converged: bool
    rss_history: list = field(default_factory=list)


def _fw_rows_batch(a: np.ndarray, q: np.ndarray, lin: np.ndarray, steps: int) -> np.ndarray:
    """Frank-Wolfe on independent simplex rows of A minimizing
    ||X - A Z||^2, with Q = Z Z' and lin = X Z'. Vectorized over rows."""
    for _ in range(steps):
        grad = a @ q - lin  # proportional to the true gradient (factor 2)
        j = np.argmin(grad, axis=1)
        d = -a.copy()
        d[np.arange(a.shape[0]), j] += 1.0
        slope = np.einsum("ij,ij->i", grad, d)
        curvature = np.einsum("ij,jk,ik->i", d, q, d)
        gamma = np.zeros(a.shape[0])
        move = (slope < 0.0) & (curvature > 0.0)
        gamma[move] = np.minimum(1.0, -slope[move] / curvature[move])
        gamma[(slope < 0.0) & (curvature <= 0.0)] = 1.0
        a = a + gamma[:, None] * d
    return a


def _update_b_row(b: np.ndarray, j: int, a: np.ndarray, x: np.ndarray, steps: int) -> None:
    """Frank-Wolfe on row j of B, other rows fixed, minimizing ||X - A B X||^2."""
    a_j = a[:, j]
    aj2 = float(a_j @ a_j)
    if aj2 == 0.0:  # archetype j unused by A; objective is flat in this row
        return
    z = b @ x
    residual = x - a @ z + np.outer(a_j, z[j])
    lin = x @ (residual.T @ a_j)  # (n,)
    xxt_action = None
    row = b[j]
    for _ in range(steps):
        y = row @ x  # (p,)
        grad = 2.0 * (aj2 * (x @ y) - lin)
        i = int(np.argmin(grad))
        # direction d = e_i - row; work with its image d @ X to avoid n x n forms
        dx = x[i] - y
        slope = float(grad[i] - grad @ row)
        if slope >= 0.0:
            break
        curvature = 2.0 * aj2 * float(dx @ dx)
        if curvature <= 0.0:
            gamma = 1.0
        else:
            gamma = min(1.0, -slope / curvature)
        row = row * (1.0 - gamma)
        row[i] += gamma
    b[j] = row


def furthest_sum_indices(x: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Greedy furthest-sum selection of k well-spread row indices.

    Starts from a seeded random row, greedily adds the row maximizing the
    summed distance to the current selection, then replaces the arbitrary
    starting row by one more greedy pick.
    """
    n = x.shape[0]
    rng = rng_create(seed)
    chosen = [int(rng.integers(n))]

    def sum_dists(members):
        return np.linalg.norm(x[:, None, :] - x[members], axis=2).sum(axis=1)

    for _ in range(k - 1):
        d = sum_dists(chosen)
        d[chosen] = -np.inf
        chosen.append(int(np.argmax(d)))
    if k > 1:
        chosen.pop(0)
        d = sum_dists(chosen)
        d[chosen] = -np.inf
        chosen.append(int(np.argmax(d)))
    return np.array(chosen)


def _init_b(x: np.ndarray, cfg: LinearAaConfig) -> np.ndarray:
    n = x.shape[0]
    if cfg.init == "furthest_sum" and n > cfg.k:
        idx = furthest_sum_indices(x, cfg.k, cfg.seed)
    else:
        idx = rng_create(cfg.seed).choice(n, size=cfg.k, replace=False)
    b = np.zeros((cfg.k, n))
    b[np.arange(cfg.k), np.sort(idx)] = 1.0
    return b


def fit_linear_aa(x, cfg: LinearAaConfig) -> LinearAaModel:
    """Alternating Frank-Wolfe fit of the archetypal factorization."""
    x = as_matrix(x, "X")
    n, _ = x.shape
    if cfg.k > n:
        raise DimensionError(f"k={cfg.k} exceeds number of rows n={n}")
    b = _init_b(x, cfg)
    a = np.full((n, cfg.k), 1.0 / cfg.k)
    z = b @ x
    rss_prev = float(np.sum((x - a @ z) ** 2))
    history = [rss_prev]
    converged = False
    iterations = 0
    for outer in range(cfg.max_outer_iters):
        iterations = outer + 1
        q = z @ z.T
        lin = x @ z.T
        a = _fw_rows_batch(a, q, lin, _INNER_FW_STEPS)
        for j in range(cfg.k):
            _update_b_row(b, j, a, x, _INNER_FW_STEPS)
        z = b @ x
        rss_now = float(np.sum((x - a @ z) ** 2))
        if not np.isfinite(rss_now):
            raise NumericalError("RSS became non-finite during fitting")
        history.append(rss_now)
        denom = max(rss_prev, 1e-30)
        if (rss_prev - rss_now) / denom < cfg.rel_tol:
            converged = True
            rss_prev = rss_now
            break
        rss_prev = rss_now
    check_finite(a, "A")
    check_finite(b, "B")
    return LinearAaModel(
        a=a, b=b, z=z, rss=rss_prev, iterations=iterations,
        converged=converged, rss_history=history,
    )


_ENUM_MAX_K = 12


def transform(x, z, steps: int = 2000) -> np.ndarray:
    """Optimal simplex weights A for fixed archetypes Z.

    For k <= 12 the simplex-constrained least-squares problem is solved
    exactly per row: every support set is enumerated, the equality-
    constrained optimum on that support is computed from its KKT system,
    and the best feasible candidate is kept (the true optimum's support is
    among the subsets, so this attains the global minimum). Larger k falls
    back to ``steps`` Frank-Wolfe iterations.
    """
    x = as_matrix(x, "X")
    z = as_matrix(z, "Z")
    k = z.shape[0]
    n = x.shape[0]
    if k == 1:
        return np.ones((n, 1))
    if k > _ENUM_MAX_K:
        a = np.full((n, k), 1.0 / k)
        return _fw_rows_batch(a, z @ z.T, x @ z.T, steps)
    gram = z @ z.T
    lin = x @ z.T  # (n, k)
    best_obj = np.full(n, np.inf)
    best_a = np.full((n, k), 1.0 / k)
    for mask in range(1, 2**k):
        support = [j for j in range(k) if mask >> j & 1]
        s = len(support)
        kkt = np.zeros((s + 1, s + 1))
        kkt[:s, :s] = 2.0 * gram[np.ix_(support, support)]
        kkt[:s, s] = 1.0
        kkt[s, :s] = 1.0
        try:
            inv = np.linalg.inv(kkt)
        except np.linalg.LinAlgError:
            continue
        rhs = np.hstack([2.0 * lin[:, support], np.ones((n, 1))])  # (n, s+1)
        sol = rhs @ inv.T
        a_s = sol[:, :s]
        feasible = np.all(a_s >= -1e-12, axis=1)
        if not np.any(feasible):
            continue
        a_s = np.clip(a_s, 0.0, None)
        sums = a_s.sum(axis=1, keepdims=True)
        np.divide(a_s, sums, out=a_s, where=sums > 0.0)
        # objective up to the constant ||x||^2 term
        obj = (np.einsum("ij,jl,il->i", a_s, gram[np.ix_(support, support)], a_s)
               - 2.0 * np.einsum("ij,ij->i", a_s, lin[:, support]))
        better = feasible & (obj < best_obj)
        if np.any(better):
            best_obj[better] = obj[better]
            rows = np.zeros((int(better.sum()), k))
            rows[:, support] = a_s[better]
            best_a[better] = rows
    return best_a
