"""Generative simplex latent variable model behind archetypal analysis.

Each observation is a Dirichlet-weighted convex mixture of fixed archetypes
plus isotropic Gaussian noise. Used to synthesize the benchmark data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .numerics import as_matrix, rng_create, rng_dirichlet_matrix


def default_alpha(k: int) -> np.ndarray:
    """Uniform concentrations summing to one (alpha_j = 1/k)."""
    return np.full(k, 1.0 / k)


@dataclass(frozen=True)
class ProbAaConfig:
    k: int
    z_true: np.ndarray  # (k, p)
    sigma2: float = 0.05
    alpha: np.ndarray | None = None  # defaults to (1/k, ..., 1/k)

    def __post_init__(self):
        z = as_matrix(self.z_true, "Z_true")
        if z.shape[0] != self.k:
            raise ParameterError(f"Z_true has {z.shape[0]} rows, expected k={self.k}")
        object.__setattr__(self, "z_true", z)
        if self.sigma2 < 0:
            raise ParameterError("sigma2 must be >= 0")
        alpha = default_alpha(self.k) if self.alpha is None else np.asarray(self.alpha, float)
        if alpha.shape != (self.k,) or np.any(alpha <= 0):
            raise ParameterError("alpha must be a k-vector of positive concentrations")
        object.__setattr__(self, "alpha", alpha)


def sample(cfg: ProbAaConfig, n: int, seed: int):
    """Draw n observations; returns (X, A_true) with A_true rows on the simplex."""
    if n < 0:
        raise ParameterError("n must be >= 0")
    rng = rng_create(seed)
    p = cfg.z_true.shape[1]
    if n == 0:
        return np.zeros((0, p)), np.zeros((0, cfg.k))
    a_true = rng_dirichlet_matrix(rng, cfg.alpha, n)
    x = a_true @ cfg.z_true
    if cfg.sigma2 > 0:
        x = x + math.sqrt(cfg.sigma2) * rng.standard_normal((n, p))
    return x, a_true
