"""Linear archetypal analysis: X ~ A B X with row-stochastic A and B.

The solver alternates between the two blocks of simplex least-squares
problems, forming no n x n matrix. With the archetypes Z = B X fixed, the
A-step solves every row of A exactly, from the current A, by the active-set
method that ``transform`` runs. With A fixed, the rows of B are updated one
after another (Gauss-Seidel): each row, the weights of one archetype over the
rows of X, takes up to ten pairwise Frank-Wolfe steps (Lacoste-Julien & Jaggi
2015), stopping once no pair of atoms descends. Each outer iteration then
extrapolates (A, B) along its last step and keeps that point only if its RSS
is lower (Ang & Gillis 2019); beta grows from 1 by half per kept point, up to
4, and falls back to 1 when one is not kept. Every iterate stays feasible and
the RSS is non-increasing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericalError, ParameterError, check_fields
from .numerics import as_array, rng_create

_INNER_FW_STEPS = 10
_KKT_TOL = 1e-10  # the active-set certificate, relative to ||x_i||^2 + max_j ||z_j||^2
_ROUNDS_PER_ATOM = 10  # the active-set round bound is this times k
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
        if self.rel_tol <= 0:
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

    @property
    def stop(self) -> dict:
        """Why and after how many outer iterations the fit stopped."""
        return {"reason": "converged" if self.converged else "iteration cap",
                "iterations": self.iterations}

    @staticmethod
    def from_dict(d: dict) -> "LinearAaModel":
        """Raises ShapeError unless A is (n, k), B (k, n) and Z (k, p), and
        NumericalError if any of them holds a non-finite number."""
        a = as_array(d["a"], "A", (None, None))
        b, z = as_array(d["b"], "B", a.shape[::-1]), as_array(d["z"], "Z", (a.shape[1], None))
        return LinearAaModel(
            a=a, b=b, z=z, rss=float(d["rss"]),
            iterations=int(d["iterations"]), converged=bool(d["converged"]),
            rss_history=list(d["rss_history"]),
        )


def _fw_row(w: np.ndarray, dictionary: np.ndarray, target: np.ndarray,
            steps: int) -> np.ndarray:
    """Pairwise Frank-Wolfe with exact line search on one simplex row: ``w``
    minimizes ||target - w @ dictionary||^2. Each step moves weight from the
    support atom with the largest gradient to the atom with the smallest
    (lowest index on ties), up to all of it."""
    w = w.copy()
    for _ in range(steps):  # grad is half the true gradient
        grad = (w @ dictionary - target) @ dictionary.T
        j, a = np.argmin(grad), np.argmax(np.where(w > 0.0, grad, -np.inf))
        slope = grad[j] - grad[a]
        if not slope < 0.0:  # no pair descends, so no later step moves either
            break
        move = dictionary[j] - dictionary[a]
        curvature = np.einsum("i,i->", move, move)
        gamma = min(w[a], -slope / curvature) if curvature > 0.0 else w[a]
        w[a] -= gamma
        w[j] += gamma
    return w


def _active_set(a: np.ndarray, x: np.ndarray, z: np.ndarray):
    """Lawson & Hanson's active-set NNLS with the sum-to-one row in the KKT
    system, batched: column i of the feasible start ``a`` (k, n) moves to the
    weights minimizing ||x_i - a_i' Z||^2, never raising that objective. A row
    optimal on its support adds the outside atom of least gradient; one whose
    support's optimum leaves the simplex steps back to the boundary and drops
    the atoms that reach zero. Returns the weights and the uncertified rows."""
    a = a.copy()  # transposed, so that reductions over atoms run along the fast axis
    gram, lin = z @ z.T, z @ x.T  # one column per row of X; half the gradient is G a - lin
    tol = _KKT_TOL * (np.einsum("ij,ij->i", x, x) + np.diag(gram).max())
    # the rows not yet certified, and whether each is optimal on its support (a vertex is)
    cols, stationary = np.arange(len(x)), np.count_nonzero(a, axis=0) == 1
    for rounds in range(_ROUNDS_PER_ATOM * len(z) + 1):
        w = a[:, cols]
        g = gram @ w - lin[:, cols]
        keep = (np.abs(w.sum(axis=0) - 1.0) > 1e-12) | (
            np.where(w > 0.0, g, -np.inf).max(axis=0) - g.min(axis=0) > tol[cols])
        cols, w, g = cols[keep], w[:, keep], g[:, keep]
        if not len(cols) or rounds == _ROUNDS_PER_ATOM * len(z):
            break
        on = w > 0.0
        add = np.flatnonzero(stationary[cols])
        on[np.argmin(np.where(on, np.inf, g)[:, add], axis=0), add] = True
        # s: the optimum on each support, from one KKT solve per distinct support
        s, keys = np.zeros(on.shape), np.packbits(on, axis=0)
        order = np.lexsort(keys)
        starts = np.flatnonzero(np.diff(keys[:, order], axis=1).any(axis=0)) + 1
        for group in np.split(order, starts):
            atoms = np.flatnonzero(on[:, group[0]])
            kkt = np.ones((len(atoms) + 1,) * 2)
            kkt[:-1, :-1] = gram[np.ix_(atoms, atoms)]
            kkt[-1, -1] = 0.0
            rhs = np.vstack([lin[np.ix_(atoms, cols[group])], np.ones(len(group))])
            try:  # for nearly affinely dependent atoms LU's answer can solve nothing
                sol = np.linalg.solve(kkt, rhs)
                if np.abs(kkt @ sol - rhs).max() > 1e-8 * (np.abs(kkt).max() + np.abs(rhs).max()):
                    raise np.linalg.LinAlgError("numerically singular")
            except np.linalg.LinAlgError:  # affinely dependent atoms: one of the optima
                sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
            s[np.ix_(atoms, group)] = sol[:-1]
        ratio = np.divide(w, w - s, out=np.full(s.shape, np.inf), where=s < 0.0)
        alpha = np.minimum(ratio.min(axis=0), 1.0)
        w = np.where(ratio <= alpha, 0.0, s - (1.0 - alpha) * (s - w))
        a[:, cols], stationary[cols] = w, alpha == 1.0
    return a, cols


def _extrapolate(new: np.ndarray, old: np.ndarray, beta: float) -> np.ndarray:
    """Rows of max(new + beta (new - old), 0), each rescaled to sum 1."""
    w = np.maximum(new + beta * (new - old), 0.0)
    return w / w.sum(axis=1, keepdims=True)


def furthest_sum_indices(x: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Greedy furthest-sum selection of k well-spread row indices.

    Starts from a seeded random row, greedily adds the row maximizing the
    summed distance to the current selection, then replaces the arbitrary
    starting row by one more greedy pick; the sum runs, in O(n (p + k)) memory.
    """
    chosen, columns, summed = [int(rng_create(seed).integers(x.shape[0]))], [], 0.0
    d = np.empty(x.shape)  # a pick's squared differences, the one n x p temporary
    for pick in range(k if k > 1 else 0):
        np.square(np.subtract(x, x[chosen[-1]], out=d), out=d)
        columns.append(np.sqrt(d.sum(axis=1)))
        summed = summed + columns[-1]
        if pick == k - 1:  # the last pick replaces the arbitrary start
            del chosen[0], columns[0]
            summed = sum(columns)  # summed again, in pick order
        summed[chosen] = -np.inf  # a chosen row stays at -inf, never picked again
        chosen.append(int(np.argmax(summed)))
    return np.array(chosen)


def fit_linear_aa(x, cfg: LinearAaConfig) -> LinearAaModel:
    """Alternating fit of the archetypal factorization (see the module docstring)."""
    # C order: the same BLAS kernels for any layout
    x = np.ascontiguousarray(as_array(x, "X", (None, None)))
    n, _ = x.shape
    if cfg.k > n:
        raise DimensionError(f"k={cfg.k} exceeds number of rows n={n}")
    b = np.zeros((cfg.k, n))
    b[np.arange(cfg.k), np.sort(furthest_sum_indices(x, cfg.k, cfg.seed))] = 1.0
    a = np.full((n, cfg.k), 1.0 / cfg.k)
    z = b @ x
    rss_prev = float(np.sum((x - a @ z) ** 2))
    history = [rss_prev]
    converged, beta = False, _BETA_START
    for _ in range(cfg.max_outer_iters):
        a_old, b_old = a, b.copy()  # the B-step writes rows of b in place
        a = _active_set(a.T, x, z)[0].T
        for j in range(cfg.k):
            weight = float(np.einsum("i,i->", a[:, j], a[:, j]))  # BLAS's dot splits by threads
            if weight == 0.0:  # archetype j unused by A; objective is flat in B[j]
                continue
            target = (x - a @ z).T @ a[:, j] / weight + z[j]
            b[j] = _fw_row(b[j], x, target, _INNER_FW_STEPS)
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
    a, b = as_array(a, "A", (n, cfg.k)), as_array(b, "B", (cfg.k, n))
    return LinearAaModel(a=a, b=b, z=z, rss=rss_prev, iterations=len(history) - 1,
                         converged=converged, rss_history=history)


def transform(x, z) -> np.ndarray:
    """Simplex weights A for fixed archetypes Z, exact for every k: each row
    starts at its nearest archetype and runs the fit's active-set A-step. A
    returned row is on the simplex; unless a warning counts it (naming ten), no
    gradient on its support exceeds the least by over _KKT_TOL (||x_i||^2 +
    max_j ||z_j||^2), so its objective is within twice that of the optimum."""
    x = as_array(x, "X", (None, None))
    z = as_array(z, "Z", (None, x.shape[1]))
    if len(z) == 0:
        raise DimensionError("Z has no rows; transform needs at least one archetype")
    nearest = np.argmin(np.einsum("ij,ij->i", z, z)[:, None] - 2.0 * z @ x.T, axis=0)
    a, cols = _active_set(np.eye(len(z))[:, nearest], x, z)
    if len(cols):
        warnings.warn(f"transform: {len(cols)} rows not certified optimal, among them "
                      f"{cols[:10].tolist()}", stacklevel=2)
    return np.ascontiguousarray(a.T)
