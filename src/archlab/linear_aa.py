"""Linear archetypal analysis: X ~ A B X with row-stochastic A and B.

The solver alternates between the two weight blocks. Both are made of
least-squares problems on the unit simplex, and one routine, ``_fw_rows``,
takes a few pairwise Frank-Wolfe steps with exact line search on all of
them, in the image space of its dictionary, so no n x n matrix is formed.
With B (hence the archetypes Z = B X) fixed, every row of A is an
independent problem over the dictionary Z. With A fixed, the rows of B are
updated one after another (Gauss-Seidel), each over the dictionary X.
Each outer iteration then extrapolates (A, B) along its last step and keeps
that point only if its RSS is lower (Ang & Gillis 2019); the factor beta
grows from 1 by half per kept point, up to 4, and falls back to 1 when one
is not kept. Every iterate stays feasible and the RSS is non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericalError, ParameterError, ShapeError, check_fields
from .numerics import as_matrix, check_finite, rng_create

_INNER_FW_STEPS = 10
_BETA_START, _BETA_GROWTH, _BETA_MAX = 1.0, 1.5, 4.0


@dataclass(frozen=True)
class LinearAaConfig:
    k: int
    max_outer_iters: int = 500
    rel_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        check_fields(self, int, "k", "max_outer_iters", "seed")
        check_fields(self, float, "rel_tol")
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        if self.max_outer_iters < 0:
            raise ParameterError(f"max_outer_iters must be >= 0, got {self.max_outer_iters}")
        if not self.rel_tol > 0:  # NaN too
            raise ParameterError(f"rel_tol must be > 0, got {self.rel_tol}")


@dataclass
class LinearAaModel:
    a: np.ndarray  # (n, k), rows on the simplex
    b: np.ndarray  # (k, n), rows on the simplex
    z: np.ndarray  # (k, p), archetypes, exactly B @ X
    rss: float
    iterations: int
    converged: bool
    rss_history: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "a": self.a.tolist(), "b": self.b.tolist(), "z": self.z.tolist(),
            "rss": self.rss, "iterations": self.iterations, "converged": self.converged,
            "rss_history": list(map(float, self.rss_history)),
        }

    @staticmethod
    def from_dict(d: dict) -> "LinearAaModel":
        """Raises ShapeError unless A is (n, k), B (k, n) and Z (k, p)."""
        a, b, z = (np.array(d[name], float) for name in ("a", "b", "z"))
        if a.ndim != 2 or b.shape != a.shape[::-1] or z.ndim != 2 or len(z) != a.shape[1]:
            raise ShapeError(f"A {a.shape}, B {b.shape} and Z {z.shape} do not fit together")
        return LinearAaModel(
            a=a, b=b, z=z, rss=float(d["rss"]),
            iterations=int(d["iterations"]), converged=bool(d["converged"]),
            rss_history=list(d.get("rss_history", [])),
        )


def _fw_rows(w: np.ndarray, dictionary: np.ndarray, target: np.ndarray,
             steps: int) -> np.ndarray:
    """Pairwise Frank-Wolfe with exact line search on independent simplex
    rows: row i of ``w`` minimizes ||target[i] - w[i] @ dictionary||^2. Each
    step moves weight from the support atom with the largest gradient to the
    atom with the smallest (lowest index on ties), up to all of it."""
    w = w.copy()
    # w[i, c] is flat[start[i] + c]: one flat index is faster than a pair
    flat, start = w.reshape(-1), np.arange(0, w.size, w.shape[1])
    for _ in range(steps):
        grad = (w @ dictionary - target) @ dictionary.T  # half the true gradient
        j = np.argmin(grad, axis=1)
        a = np.argmax(np.where(w > 0.0, grad, -np.inf), axis=1)
        fj, fa = start + j, start + a
        slope = np.take(grad, fj) - np.take(grad, fa)
        move = np.take(dictionary, j, axis=0) - np.take(dictionary, a, axis=0)
        curvature = np.einsum("ij,ij->i", move, move)
        cap = flat[fa]
        ratio = np.divide(-slope, curvature, out=cap.copy(), where=curvature > 0.0)
        gamma = np.where(slope < 0.0, np.minimum(cap, ratio), 0.0)
        flat[fa] -= gamma
        flat[fj] += gamma
    return w


def _extrapolate(new: np.ndarray, old: np.ndarray, beta: float) -> np.ndarray:
    """Rows of max(new + beta (new - old), 0), each rescaled to sum 1."""
    w = np.maximum(new + beta * (new - old), 0.0)
    return w / w.sum(axis=1, keepdims=True)


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
    idx = furthest_sum_indices(x, cfg.k, cfg.seed)
    b = np.zeros((cfg.k, x.shape[0]))
    b[np.arange(cfg.k), np.sort(idx)] = 1.0
    return b


def fit_linear_aa(x, cfg: LinearAaConfig) -> LinearAaModel:
    """Alternating pairwise Frank-Wolfe fit of the archetypal factorization."""
    x = np.ascontiguousarray(as_matrix(x, "X"))  # np.take copies a strided X
    n, _ = x.shape
    if cfg.k > n:
        raise DimensionError(f"k={cfg.k} exceeds number of rows n={n}")
    b = _init_b(x, cfg)
    a = np.full((n, cfg.k), 1.0 / cfg.k)
    z = b @ x
    rss_prev = float(np.sum((x - a @ z) ** 2))
    history = [rss_prev]
    converged = False
    beta = _BETA_START
    for _ in range(cfg.max_outer_iters):
        a_old, b_old = a, b.copy()  # the B-step writes rows of b in place
        a = _fw_rows(a, z, x, _INNER_FW_STEPS)
        for j in range(cfg.k):
            weight = float(a[:, j] @ a[:, j])
            if weight == 0.0:  # archetype j unused by A; objective is flat in B[j]
                continue
            target = (x - a @ z).T @ a[:, j] / weight + z[j]
            b[j] = _fw_rows(b[j:j + 1], x, target[None], _INNER_FW_STEPS)[0]
            z[j] = b[j] @ x
        z = b @ x
        rss_now = float(np.sum((x - a @ z) ** 2))
        a_ex, b_ex = _extrapolate(a, a_old, beta), _extrapolate(b, b_old, beta)
        z_ex = b_ex @ x
        rss_ex = float(np.sum((x - a_ex @ z_ex) ** 2))
        if rss_ex < rss_now:
            a, b, z, rss_now = a_ex, b_ex, z_ex, rss_ex
            beta = min(_BETA_GROWTH * beta, _BETA_MAX)
        else:
            beta = _BETA_START
        if not np.isfinite(rss_now):
            raise NumericalError("RSS became non-finite during fitting")
        history.append(rss_now)
        converged = (rss_prev - rss_now) / max(rss_prev, 1e-30) < cfg.rel_tol
        rss_prev = rss_now
        if converged:
            break
    check_finite(a, "A")
    check_finite(b, "B")
    return LinearAaModel(
        a=a, b=b, z=z, rss=rss_prev, iterations=len(history) - 1,
        converged=converged, rss_history=history,
    )


_ENUM_MAX_K = 12
_TRANSFORM_FW_STEPS = 2000


def transform(x, z) -> np.ndarray:
    """Optimal simplex weights A for fixed archetypes Z.

    For k <= 12 the simplex-constrained least-squares problem is solved
    exactly per row: every support set is enumerated, the equality-
    constrained optimum on that support is computed from its KKT system,
    and the best feasible candidate is kept (the true optimum's support is
    among the subsets, so this attains the global minimum). Larger k falls
    back to 2000 Frank-Wolfe steps.
    """
    x = as_matrix(x, "X")
    z = as_matrix(z, "Z")
    k = z.shape[0]
    n = x.shape[0]
    if k == 1:
        return np.ones((n, 1))
    if k > _ENUM_MAX_K:
        a = np.full((n, k), 1.0 / k)
        return _fw_rows(a, z, x, _TRANSFORM_FW_STEPS)
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
