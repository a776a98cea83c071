"""Archetype-count sweeps with a fixed train/test split and elbow detection.

A sweep fits its archetype counts in worker processes, one per CPU the
process may run on (at most one per k). Each k's fit is seeded from the
sweep's seed and k alone, so the curve is identical to fitting the counts
one after another in one process.
"""

from __future__ import annotations

import os
import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import deep_aa, linear_aa
from .datasets import Dataset
from .errors import (ArchlabError, DimensionError, InsufficientPoints, ParameterError,
                     build_config, check_keys)
from .numerics import check_seed, rng_create

TEST_FRACTION = 0.1
# detect_elbow's bound on a relative improvement that still counts as converged
ELBOW_THRESHOLD = 0.05


@dataclass
class SelectionCurve:
    ks: list
    losses: list  # test reconstruction MSE per k; None marks a failed fit
    chosen_k: int | None = None
    failures: dict = field(default_factory=dict)  # k -> why its fit failed
    # k -> LinearAaModel.stop: how each linear fit stopped
    stops: dict = field(default_factory=dict)
    # k -> seconds its fit took, timed in the worker process that ran it
    seconds: dict = field(default_factory=dict)
    workers: int = 0  # worker processes the sweep ran its fits in


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
    return float(np.mean((x_test - a_test @ model.z) ** 2)), model.stop


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


def _fit_one(fit, dataset, k, cfg, seed):
    """One k of a sweep, run in a worker process: its loss and stop (None
    for a failed fit), why it failed, the warnings it raised as
    (message, category, filename, lineno, module), and its seconds. The fitter is
    looked up by name here, in the forked copy of this module, so one
    replaced on the module before the sweep is the one that runs."""
    started = time.perf_counter()
    loss = stop = failure = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            loss, stop = globals()[f"_{fit}_test_mse"](dataset, k, cfg, seed)
        except ArchlabError as exc:
            failure = f"{type(exc).__name__}: {exc}"
    # warnings.warn names a warning's module by the __name__ of the frame it
    # is raised in: the module whose file that frame runs
    modules = {getattr(m, "__file__", None): name for name, m in list(sys.modules.items())}
    raised = [(str(w.message), w.category, w.filename, w.lineno, modules.get(w.filename))
              for w in caught]
    return loss, stop, failure, raised, time.perf_counter() - started


def sweep(dataset, ks, fit: str = "linear", cfg: dict | None = None,
          seed: int = 0) -> SelectionCurve:
    """Fit one model per archetype count and record test reconstruction MSE.

    A fit that raises an ArchlabError is recorded as a missing point, with
    the reason in ``failures``, rather than aborting the sweep; a dataset
    too small to hold out a test row, a k below 1, a negative seed, a config
    key the fitter does not take, or a value no k could use, is rejected
    before any fit runs. ``stops`` records how each linear fit stopped.

    The fits run in ``workers`` forked worker processes, one per CPU in this
    process's affinity mask and at most one per k, largest k first, as the
    largest fits take longest. The curve is identical to a serial sweep's.
    ``seconds`` holds each k's fit time, measured in its worker. Warnings a
    fit raises are raised again here, in k order and under the module that
    raised them, so filters apply as in a serial sweep; any error other than
    an ArchlabError propagates. No worker outlives the call.
    """
    ks = list(ks)
    if not ks:
        raise ParameterError("ks must be non-empty")
    if sorted(set(ks)) != ks:
        raise ParameterError("ks must be strictly ascending")
    if ks[0] < 1:
        raise ParameterError(f"archetype counts must be at least 1, got {ks[0]}")
    check_seed(seed)
    if len(dataset.x) < 2:
        raise DimensionError(f"a sweep needs at least 2 rows to hold out a test row, "
                             f"got {len(dataset.x)}")
    cfg = {} if cfg is None else cfg
    if fit == "linear":
        configs = _linear_config
    elif fit == "deep":
        configs = _deep_configs
    else:
        raise ParameterError(f"unknown fitter '{fit}'")
    # a config key the fitter does not take (k and the seeds come from the
    # sweep), or a value of the wrong type or range, is wrong for every k,
    # so it is rejected before any fit; k=2 and seed 0 stand in for the
    # sweep's, as every fitter takes them
    configs(dataset, cfg, 2, 0)

    # imported here, as only a sweep needs them: the pool's modules add
    # about 2 MiB to every process that imports archlab
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    curve = SelectionCurve(ks=ks, losses=[],
                           workers=min(len(ks), len(os.sched_getaffinity(0))))
    # fork, not spawn or forkserver: those import NumPy and the caller's
    # __main__ again in every worker, and forkserver leaves its server running
    with ProcessPoolExecutor(curve.workers,
                             mp_context=multiprocessing.get_context("fork")) as pool:
        futures = {k: pool.submit(_fit_one, fit, dataset, k, cfg, seed)
                   for k in reversed(ks)}
        try:
            results = [futures[k].result() for k in ks]
        finally:  # on an error, fits not yet started are dropped, not run
            pool.shutdown(cancel_futures=True)
    registry = {}  # a warning repeated across the fits is shown once
    for k, (loss, stop, failure, raised, seconds) in zip(ks, results):
        for message, category, filename, lineno, module in raised:
            warnings.warn_explicit(message, category, filename, lineno, module, registry)
        curve.losses.append(loss)
        if failure is not None:
            curve.failures[k] = failure
        if stop is not None:
            curve.stops[k] = stop
        curve.seconds[k] = seconds
    usable = curve_rows(curve)
    if len(usable) == 1:
        curve.chosen_k = usable[0][0]
    elif len(usable) >= 3:
        curve.chosen_k = detect_elbow(curve)
    return curve


def detect_elbow(curve: SelectionCurve) -> int:
    """Smallest k from which every subsequent relative improvement stays at
    or below ELBOW_THRESHOLD. Invariant under scaling all losses."""
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
    slack = ELBOW_THRESHOLD + 1e-12
    for i in range(len(rel)):
        if np.all(rel[i:] <= slack):
            return points[i][0]
    return points[-1][0]


def curve_rows(curve: SelectionCurve):
    """(k, loss) rows for CSV export, skipping failed fits."""
    return [(k, l) for k, l in zip(curve.ks, curve.losses) if l is not None]
