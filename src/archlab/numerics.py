"""Shared numerical utilities: PCA, simplex geometry, row matching, seeded
RNG.

All arrays are dense float64 numpy arrays. Randomness always flows through
a ``numpy.random.Generator`` seeded with PCG64, so every stream is fully
determined by its 64-bit seed (Gaussian draws use numpy's ziggurat method,
Dirichlet draws are normalized gamma variates).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DegenerateError, DimensionError, NumericalError, ParameterError, ShapeError


def as_array(x, name: str, shape: tuple) -> np.ndarray:
    """``x`` as a float64 array of ``shape``, where None matches any length.
    Raises ShapeError naming ``name`` on any other shape, and NumericalError
    on a non-finite entry."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != len(shape) or any(want not in (None, got) for got, want in zip(m.shape, shape)):
        expected = ", ".join("any" if want is None else str(want) for want in shape)
        raise ShapeError(f"{name} has shape {m.shape}, expected ({expected})")
    if not np.isfinite(m).all():
        raise NumericalError(f"{name} contains non-finite entries")
    return m


# ---------------------------------------------------------------------------
# RNG

def check_seed(seed) -> None:
    """Raise ParameterError unless ``seed`` is a non-negative integer."""
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise ParameterError(f"a seed must be a non-negative integer, got {seed!r}")


def rng_create(seed: int) -> np.random.Generator:
    """Deterministic PCG64 generator; same seed gives bit-identical streams.
    Raises ParameterError unless ``seed`` is a non-negative integer."""
    check_seed(seed)
    return np.random.Generator(np.random.PCG64(seed))


def rng_dirichlet_matrix(rng: np.random.Generator, alpha, n: int) -> np.ndarray:
    """n iid Dirichlet(alpha) rows (vectorized gamma normalization)."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if np.any(alpha <= 0):
        raise ParameterError("all Dirichlet concentrations must be > 0")
    g = rng.standard_gamma(np.broadcast_to(alpha, (n, alpha.size)))
    totals = g.sum(axis=1, keepdims=True)
    dead = totals[:, 0] == 0.0
    if np.any(dead):
        g[dead] = 0.0
        g[dead, rng.integers(alpha.size, size=int(dead.sum()))] = 1.0
        totals = g.sum(axis=1, keepdims=True)
    return g / totals


# ---------------------------------------------------------------------------
# Simplex geometry

@dataclass(frozen=True)
class SimplexFrame:
    """k fixed archetype coordinates forming a regular (k-1)-simplex.

    Vertices have unit norm, their centroid is the origin and all pairwise
    distances are equal. ``vertices`` has shape (k, k-1).
    """

    k: int
    vertices: np.ndarray

    def __post_init__(self):
        as_array(self.vertices, f"simplex frame for k={self.k}", (self.k, self.k - 1))


def simplex_vertices(k: int) -> SimplexFrame:
    """Regular (k-1)-simplex with unit circumradius, centered at the origin.

    Construction: take the k corners of the standard simplex in R^k,
    center them, map them into the hyperplane orthogonal to the all-ones
    vector with a Helmert basis, and rescale to unit norm. Deterministic
    for every k.
    """
    if k < 2:
        raise DimensionError(f"need k >= 2 archetypes, got {k}")
    corners = np.eye(k) - 1.0 / k  # centered standard-simplex corners
    basis = _helmert_basis(k)  # (k-1, k) orthonormal rows, all orthogonal to 1
    vertices = corners @ basis.T
    vertices /= np.sqrt(1.0 - 1.0 / k)  # centered corner norm -> 1
    return SimplexFrame(k=k, vertices=vertices)


def _helmert_basis(k: int) -> np.ndarray:
    """Orthonormal basis of the hyperplane {x in R^k : sum(x) = 0}."""
    basis = np.zeros((k - 1, k))
    for i in range(1, k):
        basis[i - 1, :i] = 1.0
        basis[i - 1, i] = -float(i)
        basis[i - 1] /= np.sqrt(i * (i + 1.0))
    return basis


# ---------------------------------------------------------------------------
# PCA

@dataclass(frozen=True)
class PcaModel:
    """Column mean, top-q orthonormal principal directions and variances."""

    mean: np.ndarray
    components: np.ndarray  # (q, p), orthonormal rows
    explained_variance: np.ndarray  # (q,), non-increasing, >= 0


def pca_fit(x, q: int) -> PcaModel:
    """Top-q PCA of the rows of x via eigendecomposition of the sample
    covariance (n-1 convention).

    Component signs are fixed so the entry of largest magnitude in each
    component is positive, making the output deterministic.
    """
    x = as_array(x, "X", (None, None))
    n, p = x.shape
    if n < 2:
        raise DimensionError(f"PCA needs at least 2 rows, got {n}")
    if not (1 <= q <= min(n, p)):
        raise DimensionError(f"q={q} out of range [1, {min(n, p)}]")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    if np.allclose(cov, 0.0):
        raise DegenerateError("X has zero variance in all columns")
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:q]
    variance = np.clip(eigvals[order], 0.0, None)
    components = eigvecs[:, order].T
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    return PcaModel(mean=mean, components=components, explained_variance=variance)


def best_assignment(cost) -> list:
    """One-to-one assignment of rows to columns of the square ``cost``
    matrix minimizing the total cost: row j goes to column perm[j].

    A dynamic programme over the sets of columns the first rows take
    (k * 2^k states): ``rest[taken]`` is the least cost of the remaining
    rows on the remaining columns. Rows are then assigned in order, each to
    the lowest column that keeps the least total, so a tie goes to the
    permutation that comes first in lexicographic order.
    """
    cost = np.asarray(cost, float).tolist()
    k = len(cost)
    rest = [0.0] * (1 << k)
    for taken in range((1 << k) - 2, -1, -1):
        row = cost[taken.bit_count()]
        rest[taken] = min(row[c] + rest[taken | 1 << c]
                          for c in range(k) if not taken >> c & 1)
    perm, taken = [], 0
    for row in cost:
        c = next(c for c in range(k) if not taken >> c & 1
                 and row[c] + rest[taken | 1 << c] == rest[taken])
        perm.append(c)
        taken |= 1 << c
    return perm


def match_rows(estimated, truth):
    """Assign estimated rows to truth rows one-to-one, minimizing the total
    mean absolute per-coordinate error (see :func:`best_assignment`).

    Returns (perm, errors) where estimated[perm[i]] is matched to truth[i]
    and errors[i] is the mean absolute coordinate error of that pair.
    """
    estimated = as_array(estimated, "estimated", (None, None))
    truth = as_array(truth, "truth", estimated.shape)
    k = truth.shape[0]
    cost = np.array([
        [np.mean(np.abs(estimated[i] - truth[j])) for i in range(k)]
        for j in range(k)
    ])
    perm = best_assignment(cost)
    errors = np.array([cost[j][perm[j]] for j in range(k)])
    return perm, errors


def pca_project(model: PcaModel, x) -> np.ndarray:
    x = as_array(x, "X", (None, len(model.mean)))
    return (x - model.mean) @ model.components.T
