import copy
import multiprocessing
import os
import warnings

import numpy as np
import pytest

from archlab import model_selection, numerics
from archlab.datasets import Dataset
from archlab.errors import DimensionError, NumericalError, ParameterError
from archlab.model_selection import SelectionCurve
from archlab.numerics import rng_create


def convex_dataset(k_true=3, n=400, p=4, noise=0.0, seed=0):
    """Points sampled inside the hull of k_true well-separated archetypes."""
    rng = rng_create(seed)
    z = 6.0 * rng.standard_normal((k_true, p))
    w = numerics.rng_dirichlet_matrix(rng, np.full(k_true, 0.3), n - k_true)
    x = np.vstack([z, w @ z])
    if noise:
        x = x + noise * rng.standard_normal(x.shape)
    return Dataset(x=x)


class TestSplit:
    def test_sizes_and_disjoint(self):
        train, test = model_selection.split_train_test(1000, seed=0)
        assert len(test) == 100
        assert len(train) == 900
        assert len(np.intersect1d(train, test)) == 0
        together = np.sort(np.concatenate([train, test]))
        np.testing.assert_array_equal(together, np.arange(1000))

    def test_deterministic(self):
        t1 = model_selection.split_train_test(50, seed=3)
        t2 = model_selection.split_train_test(50, seed=3)
        np.testing.assert_array_equal(t1[0], t2[0])
        np.testing.assert_array_equal(t1[1], t2[1])

    def test_single_row_has_no_test(self):
        train, test = model_selection.split_train_test(1, seed=0)
        assert len(test) == 0
        assert len(train) == 1


class TestSweep:
    TIGHT = {"max_outer_iters": 3000, "rel_tol": 1e-10}

    @pytest.mark.parametrize("fit", ["linear", "deep"])
    def test_fewer_than_two_rows_rejected_before_any_fit(self, fit):
        # one row leaves no row to hold out, so no k has a test loss
        with pytest.raises(DimensionError, match="at least 2 rows.*got 1"):
            model_selection.sweep(Dataset(x=np.array([[1.0, 2.0]])), [1, 2], fit=fit)

    def test_losses_non_increasing_on_convex_data(self):
        ds = convex_dataset(k_true=3, noise=0.0)
        curve = model_selection.sweep(ds, [1, 2, 3, 4, 5], fit="linear",
                                      cfg=self.TIGHT)
        losses = np.array(curve.losses, dtype=float)
        assert np.all(np.diff(losses) <= 1e-6)

    def test_elbow_at_true_k(self):
        ds = convex_dataset(k_true=3, noise=0.0)
        curve = model_selection.sweep(ds, [1, 2, 3, 4, 5], fit="linear",
                                      cfg=self.TIGHT)
        assert curve.chosen_k == 3

    def test_deep_sweep_runs(self):
        ds = convex_dataset(k_true=3, n=200, noise=0.05)
        cfg = {"arch": {"encoder_hidden": (8,), "decoder_hidden": (8,)},
               "hyper": {"epochs": 1, "batch": 50}}
        given = copy.deepcopy(cfg)
        curve = model_selection.sweep(ds, [2, 3], fit="deep", cfg=cfg)
        assert all(l is not None and l >= 0 for l in curve.losses)
        assert cfg == given
        assert curve.stops == {}

    def test_failed_fit_recorded_as_missing(self):
        # k larger than the training rows makes that fit raise
        ds = Dataset(x=rng_create(0).standard_normal((10, 2)))
        curve = model_selection.sweep(ds, [1, 2, 50], fit="linear")
        assert curve.losses[2] is None
        assert curve.losses[0] is not None
        assert list(curve.failures) == [50]
        assert curve.failures[50].startswith("DimensionError: k=50 exceeds")
        assert list(curve.stops) == [1, 2]

    def test_one_usable_k_is_chosen(self):
        # elbow detection needs three points; with one, that k is chosen
        ds = Dataset(x=rng_create(0).standard_normal((10, 2)))
        curve = model_selection.sweep(ds, [2, 50], fit="linear")
        assert list(curve.failures) == [50]
        assert curve.chosen_k == 2

    @pytest.mark.parametrize("fit", ["linear", "deep"])
    def test_non_finite_data_rejected_before_any_fit(self, monkeypatch, fit):
        def fitted(*args):
            raise AssertionError("a fit ran")
        monkeypatch.setattr(model_selection, f"_{fit}_test_mse", fitted)
        x = convex_dataset(n=50).x
        x[7, 1] = np.inf
        with pytest.raises(NumericalError, match="X contains non-finite entries"):
            model_selection.sweep(Dataset(x=x), [1, 2], fit=fit)

    @pytest.mark.parametrize("labels, error, message", [
        ("nan", NumericalError, "labels contains non-finite entries"),
        (None, ParameterError, "field 'side_hidden' sets a side head"),
    ], ids=["nan-label", "no-labels"])
    def test_side_head_labels_rejected_before_any_fit(self, monkeypatch, labels, error,
                                                      message):
        def fitted(*args):
            raise AssertionError("a fit ran")
        monkeypatch.setattr(model_selection, "_deep_test_mse", fitted)
        ds = convex_dataset(n=40)
        if labels == "nan":
            y = np.linspace(0.0, 1.0, 40)
            y[model_selection.split_train_test(40, 0)[1][0]] = np.nan  # a held-out row
            ds = Dataset(x=ds.x, labels=y)
        with pytest.raises(error, match=message):
            model_selection.sweep(ds, [2, 3], fit="deep", cfg={"arch": {"side_hidden": [2]}})

    def test_stops_record_iterations_and_convergence(self):
        ds = convex_dataset(n=120)
        capped = model_selection.sweep(ds, [2, 3], fit="linear",
                                       cfg={"max_outer_iters": 1, "rel_tol": 1e-12})
        assert capped.stops == {2: {"reason": "iteration cap", "iterations": 1},
                                3: {"reason": "iteration cap", "iterations": 1}}
        free = model_selection.sweep(ds, [2, 3], fit="linear")
        assert all(s["reason"] == "converged" and s["iterations"] > 1
                   for s in free.stops.values())

    def test_non_archlab_errors_propagate(self, monkeypatch):
        def broken(*args):
            raise ValueError("defect in the fitter")
        monkeypatch.setattr(model_selection, "_linear_test_mse", broken)
        with pytest.raises(ValueError):
            model_selection.sweep(convex_dataset(n=50), [1, 2], fit="linear")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("fit, ks, cfg", [
        # k=50 exceeds the 45 training rows, so that fit fails
        ("linear", [1, 2, 3, 4, 50], {}),
        ("deep", [2, 3], {"arch": {"encoder_hidden": (8,), "decoder_hidden": (8,)},
                          "hyper": {"epochs": 1, "batch": 10}}),
    ])
    def test_matches_fits_run_in_process(self, fit, ks, cfg):
        ds = convex_dataset(n=50, noise=0.05)
        curve = model_selection.sweep(ds, ks, fit=fit, cfg=cfg, seed=5)
        assert multiprocessing.active_children() == []
        assert curve.workers == min(len(ks), len(os.sched_getaffinity(0)))
        assert sorted(curve.seconds) == ks and all(s > 0 for s in curve.seconds.values())
        losses, stops, failures = [], {}, {}
        for k in ks:
            try:
                loss, stop = getattr(model_selection, f"_{fit}_test_mse")(ds, k, cfg, 5)
            except DimensionError as exc:
                loss, stop, failures[k] = None, None, f"DimensionError: {exc}"
            losses.append(loss)
            if stop is not None:
                stops[k] = stop
        assert (curve.losses, curve.stops, curve.failures) == (losses, stops, failures)
        assert list(curve.failures) == ([50] if fit == "linear" else [])

    def test_worker_warning_reaches_the_caller_once(self):
        cfg = {"arch": {"encoder_hidden": (8,), "decoder_hidden": (8,)},
               "hyper": {"epochs": 1, "batch": 2}}
        # only the k=3 fit has a batch below k
        with pytest.warns(UserWarning, match="batch size 2 below k=3") as caught:
            model_selection.sweep(convex_dataset(n=20), [2, 3], fit="deep", cfg=cfg)
        assert [str(w.message) for w in caught if w.category is UserWarning] == [
            "batch size 2 below k=3; the batch-axis softmax cannot span all archetypes"]
        # a filter on the module the fit raised it under hides it, as it
        # hides the same fit's warning in this process
        ds = convex_dataset(n=20)
        for run in (lambda: model_selection._deep_test_mse(ds, 3, cfg, 0),
                    lambda: model_selection.sweep(ds, [2, 3], fit="deep", cfg=cfg)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                warnings.filterwarnings("ignore", category=UserWarning,
                                        module="archlab.model_selection")
                run()
            assert not [w for w in caught if w.category is UserWarning]

    @pytest.mark.parametrize("ks, seed, message", [
        ([-1, 2], 0, "at least 1, got -1"),
        ([0, 2], 0, "at least 1, got 0"),
        ([1, 2], -1, "non-negative integer, got -1"),
    ])
    def test_bad_count_or_seed_rejected_before_any_fit(self, monkeypatch, ks, seed,
                                                      message):
        def fitted(*args):
            raise AssertionError("a fit ran")
        monkeypatch.setattr(model_selection, "_linear_test_mse", fitted)
        with pytest.raises(ParameterError, match=message):
            model_selection.sweep(convex_dataset(n=50), ks, seed=seed)

    @pytest.mark.parametrize("fit, cfg", [
        ("linear", {"max_iters": 50}),
        ("deep", {"archs": {}}),
        ("deep", {"hyper": {"epoch": 1}}),
        ("deep", {"arch": {"input_dim": 4}}),
        # k and the seeds come from the sweep
        ("deep", {"arch": {"k": 7}}),
        ("deep", {"hyper": {"seed": 99, "epochs": 1}}),
    ])
    def test_unknown_config_key_rejected_before_fitting(self, monkeypatch,
                                                        fit, cfg):
        def fitted(*args):
            raise AssertionError("a fit ran")
        monkeypatch.setattr(model_selection, f"_{fit}_test_mse", fitted)
        with pytest.raises(ParameterError):
            model_selection.sweep(convex_dataset(n=50), [2, 3], fit=fit, cfg=cfg)

    def test_rejects_bad_ks(self):
        ds = convex_dataset()
        with pytest.raises(ParameterError):
            model_selection.sweep(ds, [], fit="linear")
        with pytest.raises(ParameterError):
            model_selection.sweep(ds, [3, 2], fit="linear")
        with pytest.raises(ParameterError):
            model_selection.sweep(ds, [2, 3], fit="nope")


class TestDetectElbow:
    def test_documented_example(self):
        curve = SelectionCurve(ks=[1, 2, 3, 4], losses=[10.0, 2.0, 1.9, 1.89])
        assert model_selection.detect_elbow(curve) == 2

    def test_needs_three_points(self):
        with pytest.raises(DimensionError):
            model_selection.detect_elbow(
                SelectionCurve(ks=[1, 2], losses=[1.0, 0.5])
            )

    def test_scale_invariance(self):
        losses = [10.0, 4.0, 1.0, 0.98, 0.97]
        ks = [1, 2, 3, 4, 5]
        base = model_selection.detect_elbow(SelectionCurve(ks=ks, losses=losses))
        scaled = model_selection.detect_elbow(
            SelectionCurve(ks=ks, losses=[1e6 * l for l in losses])
        )
        assert base == scaled == 3

    def test_flat_curve_picks_first_k(self):
        curve = SelectionCurve(ks=[2, 3, 4], losses=[1.0, 1.0, 1.0])
        assert model_selection.detect_elbow(curve) == 2

    def test_steadily_improving_picks_last_k(self):
        curve = SelectionCurve(ks=[1, 2, 3, 4], losses=[16.0, 8.0, 4.0, 2.0])
        assert model_selection.detect_elbow(curve) == 4

    def test_skips_missing_points(self):
        curve = SelectionCurve(ks=[1, 2, 3, 4, 5],
                               losses=[10.0, None, 1.0, 0.99, 0.98])
        assert model_selection.detect_elbow(curve) == 3

    def test_threshold_boundary_counts_as_converged(self):
        # an improvement of exactly the threshold does not block the elbow
        curve = SelectionCurve(ks=[1, 2, 3],
                               losses=[10.0, 1.0, 1.0 - model_selection.ELBOW_THRESHOLD])
        assert model_selection.detect_elbow(curve) == 2


class TestCurveRows:
    def test_skips_failures(self):
        curve = SelectionCurve(ks=[1, 2, 3], losses=[3.0, None, 1.0])
        assert model_selection.curve_rows(curve) == [(1, 3.0), (3, 1.0)]
