"""Archetype-count sweeps with a fixed train/test split and elbow detection."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import deep_aa, linear_aa
from .datasets import Dataset
from .errors import ArchlabError, InsufficientPoints, ParameterError, build_config, check_keys
from .numerics import rng_create

TEST_FRACTION = 0.1


@dataclass
class SelectionCurve:
    ks: list
    losses: list  # test reconstruction MSE per k; None marks a failed fit
    chosen_k: int | None = None
    failures: dict = field(default_factory=dict)  # k -> why its fit failed
    # k -> {"iterations", "converged"}: how each linear fit stopped
    stops: dict = field(default_factory=dict)


def split_train_test(n: int, seed: int):
    """Deterministic 90/10 split of row indices."""
    order = rng_create(seed).permutation(n)
    n_test = max(1, int(round(n * TEST_FRACTION))) if n > 1 else 0
    return np.sort(order[n_test:]), np.sort(order[:n_test])


def _seed_for(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _linear_config(dataset, cfg: dict, k: int, seed: int):
    return build_config(linear_aa.LinearAaConfig, cfg, "sweep config", k=k, seed=seed)


def _deep_configs(dataset, cfg: dict, k: int, seed: int):
    """The (arch, hyper) pair of one deep fit: the data gives input_dim and
    the sweep gives k and the seed."""
    check_keys(cfg, ("arch", "hyper"), "sweep config")
    arch = build_config(deep_aa.DeepAaArch, cfg.get("arch", {}), "sweep config 'arch'",
                        input_dim=dataset.x.shape[1], k=k)
    hyper = build_config(deep_aa.DeepAaHyper, cfg.get("hyper", {}), "sweep config 'hyper'",
                         seed=seed)
    return arch, hyper


def _linear_test_mse(dataset, k, cfg, seed):
    train_idx, test_idx = split_train_test(dataset.x.shape[0], seed)
    cfg = _linear_config(dataset, cfg, k, _seed_for(seed, k))
    model = linear_aa.fit_linear_aa(dataset.x[train_idx], cfg)
    x_test = dataset.x[test_idx]
    a_test = linear_aa.transform(x_test, model.z)
    stop = {"iterations": model.iterations, "converged": model.converged}
    return float(np.mean((x_test - a_test @ model.z) ** 2)), stop


def _deep_test_mse(dataset, k, cfg, seed):
    train_idx, test_idx = split_train_test(dataset.x.shape[0], seed)
    arch, hyper = _deep_configs(dataset, cfg, k, _seed_for(seed, k))
    model = deep_aa.DeepAaModel(arch, seed=hyper.seed)
    labels = None if dataset.labels is None else dataset.labels[train_idx]
    deep_aa.train(model, Dataset(x=dataset.x[train_idx], labels=labels),
                  hyper)
    x_test = dataset.x[test_idx]
    _, _, _, mu = model.encode(x_test)
    x_hat, _ = model.decode(mu)
    return float(np.mean((x_test - x_hat) ** 2)), None


def sweep(dataset, ks, fit: str = "linear", cfg: dict | None = None,
          seed: int = 0) -> SelectionCurve:
    """Fit one model per archetype count and record test reconstruction MSE.

    A fit that raises an ArchlabError is recorded as a missing point, with
    the reason in ``failures``, rather than aborting the sweep; a config key
    the fitter does not take, or a value no k could use, is rejected before
    any fit runs. ``stops`` records how each linear fit stopped.
    """
    ks = list(ks)
    if not ks:
        raise ParameterError("ks must be non-empty")
    if sorted(set(ks)) != ks:
        raise ParameterError("ks must be strictly ascending")
    cfg = {} if cfg is None else cfg
    if fit == "linear":
        configs, worker = _linear_config, _linear_test_mse
    elif fit == "deep":
        configs, worker = _deep_configs, _deep_test_mse
    else:
        raise ParameterError(f"unknown fitter '{fit}'")
    # a config key the fitter does not take (k and the seeds come from the
    # sweep), or a value of the wrong type or range, is wrong for every k,
    # so it is rejected before any fit; k=2 and seed 0 stand in for the
    # sweep's, as every fitter takes them
    configs(dataset, cfg, 2, 0)

    curve = SelectionCurve(ks=ks, losses=[])
    for k in ks:
        try:
            loss, stop = worker(dataset, k, cfg, seed)
        except ArchlabError as exc:
            curve.failures[k] = f"{type(exc).__name__}: {exc}"
            loss, stop = None, None
        curve.losses.append(loss)
        if stop is not None:
            curve.stops[k] = stop
    usable = [(k, l) for k, l in zip(ks, curve.losses) if l is not None]
    if len(usable) == 1:
        curve.chosen_k = usable[0][0]
    elif len(usable) >= 3:
        curve.chosen_k = detect_elbow(
            SelectionCurve(ks=[k for k, _ in usable],
                           losses=[l for _, l in usable]))
    return curve


def detect_elbow(curve: SelectionCurve, rel_threshold: float = 0.05) -> int:
    """Smallest k from which every subsequent relative improvement stays at
    or below ``rel_threshold``. Invariant under scaling all losses."""
    points = [(k, l) for k, l in zip(curve.ks, curve.losses) if l is not None]
    if len(points) < 3:
        raise InsufficientPoints(f"elbow detection needs >= 3 points, got {len(points)}")
    losses = np.array([l for _, l in points])
    # losses at the curve's floating-point floor (relative to its scale) are
    # treated as fully converged: ratios of rounding noise are meaningless
    floor = 1e-12 * losses.max()
    rel = np.zeros(len(losses) - 1)
    meaningful = losses[:-1] > floor
    rel[meaningful] = ((losses[:-1][meaningful] - losses[1:][meaningful])
                       / losses[:-1][meaningful])
    # tiny slack so an improvement of exactly the threshold counts as
    # converged despite floating-point rounding of the ratio
    slack = rel_threshold + 1e-12
    for i in range(len(rel)):
        if np.all(rel[i:] <= slack):
            return points[i][0]
    return points[-1][0]


def curve_rows(curve: SelectionCurve):
    """(k, loss) rows for CSV export, skipping failed fits."""
    return [(k, l) for k, l in zip(curve.ks, curve.losses) if l is not None]
