import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from archlab import cli, datasets, deep_aa, linear_aa, model_selection
from archlab.numerics import rng_create

from test_datasets import MALFORMED_MODELS, MISFIT_DEEP_MODELS, deep_model_payload


def run(*argv):
    return cli.main([str(a) for a in argv])


def write_spec(tmp_path, **overrides):
    spec = {"n": 120, "p": 3, "k": 3, "sigma2": 0.01,
            "embed_seed": 7, "sample_seed": 8}
    spec.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def gen_dataset(tmp_path, name="data", **overrides):
    spec = write_spec(tmp_path, **overrides)
    out = tmp_path / name
    assert run("gen-data", "--spec", spec, "--out", out) == cli.EXIT_OK
    return out


def file_bytes(directory, names):
    return {name: (Path(directory) / name).read_bytes() for name in names}


def write_non_finite_csv(tmp_path, column="x1"):
    """A 10-row labelled dataset whose column ``column`` holds one NaN."""
    columns = ["x0", "x1", "label"]
    rows = np.column_stack([rng_create(0).standard_normal((10, 2)), np.linspace(0, 1, 10)])
    rows[4, columns.index(column)] = np.nan
    path = tmp_path / "bad.csv"
    datasets.write_matrix_csv(rows, columns, str(path))
    return path


def write_labelled_csv(tmp_path, labels="finite"):
    """A 40-row dataset with a finite label column, a label column whose
    first held-out row (in a sweep seeded 0) is NaN, or no label column."""
    rng = rng_create(1)
    x = rng.standard_normal((40, 2))
    y = rng.uniform(size=40)
    if labels == "nan":
        y[model_selection.split_train_test(40, 0)[1][0]] = np.nan
    path = tmp_path / "labelled.csv"
    if labels is None:
        datasets.write_matrix_csv(x, ["x0", "x1"], str(path))
    else:
        datasets.write_matrix_csv(np.column_stack([x, y]), ["x0", "x1", "label"], str(path))
    return path


SIDE_ARCH = {"encoder_hidden": [4], "decoder_hidden": [4], "side_hidden": [2]}


class TestGenData:
    def test_writes_expected_files(self, tmp_path):
        out = gen_dataset(tmp_path)
        for name in ("X.csv", "X.atrue.csv", "X.ztrue.csv", "manifest.json"):
            assert (out / name).exists()
        ds = datasets.read_csv(str(out / "X.csv"))
        assert ds.x.shape == (120, 3)
        assert ds.labels is None
        assert ds.a_true.shape == (120, 3) and ds.z_true.shape == (3, 3)

    def test_side_info_adds_label_column(self, tmp_path):
        out = gen_dataset(tmp_path, side_info={"kind": "mixture_projection", "j": 0})
        ds = datasets.read_csv(str(out / "X.csv"))
        assert ds.labels is not None and ds.labels.shape == (120,)

    def test_rerun_byte_identical(self, tmp_path):
        csvs = ("X.csv", "X.atrue.csv", "X.ztrue.csv")
        first = file_bytes(gen_dataset(tmp_path, "run1"), csvs)
        second = file_bytes(gen_dataset(tmp_path, "run2"), csvs)
        assert first == second

    def test_manifest_records_command_and_seeds(self, tmp_path):
        out = gen_dataset(tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["seeds"] == {"embed_seed": 7, "sample_seed": 8}
        assert str(out / "X.csv") in manifest["outputs"]

    def test_git_describe_independent_of_working_directory(self, tmp_path,
                                                           monkeypatch):
        here = cli._git_describe()
        monkeypatch.chdir(tmp_path)
        assert cli._git_describe() == here

    def test_git_describe_timeout_still_writes_manifest(self, tmp_path, monkeypatch):
        def slow_git(cmd, **kwargs):
            raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))
        monkeypatch.setattr(cli.subprocess, "run", slow_git)
        out = gen_dataset(tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["git_describe"] == "unknown"

    def test_invalid_field_exits_config(self, tmp_path, capsys):
        spec = write_spec(tmp_path, warp="exp", warp_dim=9)
        code = run("gen-data", "--spec", spec, "--out", tmp_path / "o")
        assert code == cli.EXIT_CONFIG
        assert "warp_dim" in capsys.readouterr().err

    def test_non_finite_side_info_weight_exits_config(self, tmp_path, capsys):
        spec = write_spec(tmp_path, side_info={"kind": "linear_combo",
                                               "w": [1, float("nan"), 0]})
        code = run("gen-data", "--spec", spec, "--out", tmp_path / "o")
        assert code == cli.EXIT_CONFIG
        assert "side_info.w" in capsys.readouterr().err
        assert not (tmp_path / "o" / "X.csv").exists()

    def test_missing_spec_exits_io(self, tmp_path):
        code = run("gen-data", "--spec", tmp_path / "nope.json",
                   "--out", tmp_path / "o")
        assert code == cli.EXIT_IO

    def test_malformed_spec_exits_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run("gen-data", "--spec", bad, "--out", tmp_path / "o")
        assert code == cli.EXIT_CONFIG

    def test_zero_width_exits_config(self, tmp_path, capsys):
        spec = write_spec(tmp_path, n=5, p=0, k=1)
        code = run("gen-data", "--spec", spec, "--out", tmp_path / "o")
        assert code == cli.EXIT_CONFIG
        assert "p=0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_one_archetype_is_one_point(self, tmp_path):
        out = gen_dataset(tmp_path, k=1)
        ds = datasets.read_csv(str(out / "X.csv"))
        assert ds.z_true.shape == (1, 3)
        np.testing.assert_array_equal(ds.a_true, np.ones((120, 1)))

    def test_readme_spec_example_runs(self, tmp_path):
        # the spec README.md writes with cat > spec.json <<'EOF' ... EOF
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        text = re.search(r"cat > spec\.json <<'EOF'\n(.*?)\nEOF\n", readme, re.S).group(1)
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        out = tmp_path / "data"
        assert run("gen-data", "--spec", spec, "--out", out) == cli.EXIT_OK
        given = json.loads(text)
        assert given["warp"] == "exp"
        x = datasets.read_csv(str(out / "X.csv")).x
        plain = datasets.make_synthetic(datasets.SyntheticSpec(**{**given, "warp": "none"})).x
        dim = given["warp_dim"]
        np.testing.assert_array_equal(x[:, dim], np.exp(plain[:, dim]))
        np.testing.assert_array_equal(np.delete(x, dim, 1), np.delete(plain, dim, 1))


class TestFitLinear:
    def test_outputs_and_model_roundtrip(self, tmp_path):
        data = gen_dataset(tmp_path)
        out = tmp_path / "fit"
        assert run("fit-linear", "--data", data, "--k", 3, "--out", out,
                   "--seed", 0) == cli.EXIT_OK
        for name in ("model.json", "rss_log.csv", "pca_scatter.csv",
                     "manifest.json"):
            assert (out / name).exists()
        model = datasets.read_model(str(out / "model.json"))
        assert isinstance(model, linear_aa.LinearAaModel)
        assert model.a.shape == (120, 3)
        scatter, header = datasets.read_matrix_csv(str(out / "pca_scatter.csv"))
        assert header[-1] == "tag"
        assert int(scatter[:, -1].sum()) == 3  # archetype rows tagged 1

    def test_model_file_holds_the_dense_fit(self, tmp_path):
        data = gen_dataset(tmp_path)
        out = tmp_path / "fit"
        assert run("fit-linear", "--data", data, "--k", 3, "--out", out,
                   "--seed", 0) == cli.EXIT_OK
        model = linear_aa.fit_linear_aa(datasets.read_csv(str(data / "X.csv")).x,
                                        linear_aa.LinearAaConfig(k=3, seed=0))
        saved = json.loads((out / "model.json").read_text())
        for key in ("a", "b", "z", "rss", "rss_history"):
            assert saved[key] == model.to_dict()[key]

    def test_rerun_byte_identical(self, tmp_path):
        data = gen_dataset(tmp_path)
        names = ("model.json", "rss_log.csv", "pca_scatter.csv")
        runs = []
        for d in ("f1", "f2"):
            out = tmp_path / d
            assert run("fit-linear", "--data", data, "--k", 2, "--out", out,
                       "--seed", 5) == cli.EXIT_OK
            runs.append(file_bytes(out, names))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("max_iters, reason", [(1, "iteration cap"), (500, "converged")])
    def test_manifest_records_why_the_fit_stopped(self, tmp_path, max_iters, reason):
        out = tmp_path / "fit"
        assert run("fit-linear", "--data", gen_dataset(tmp_path), "--k", 3, "--out", out,
                   "--max-iters", max_iters) == cli.EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        model = datasets.read_model(str(out / "model.json"))
        assert manifest["stop"] == {"reason": reason, "iterations": model.iterations}
        assert model.converged == (reason == "converged")

    def test_non_finite_data_exits_numerical(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,x1\n1.0,2.0\nnan,0.5\n3.0,1.0\n")
        code = run("fit-linear", "--data", bad, "--k", 2,
                   "--out", tmp_path / "o")
        assert code == cli.EXIT_NUMERICAL
        assert not (tmp_path / "o" / "model.json").exists()

    def test_k_exceeding_rows_exits_config(self, tmp_path):
        data = gen_dataset(tmp_path)
        code = run("fit-linear", "--data", data, "--k", 500,
                   "--out", tmp_path / "o")
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("rows, message", [("1,2\n", "at least 2 rows"),
                                                ("1,2\n1,2\n1,2\n", "zero variance")],
                             ids=["one row", "equal rows"])
    def test_failed_projection_writes_no_file(self, tmp_path, capsys, rows, message):
        # the fit succeeds, but the PCA plot projection cannot be made
        data = tmp_path / "data.csv"
        data.write_text("x0,x1\n" + rows)
        out = tmp_path / "o"
        assert run("fit-linear", "--data", data, "--k", 1, "--out", out) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_exits_config(self, tmp_path, capsys, tol):
        data = gen_dataset(tmp_path)
        capsys.readouterr()
        code = run("fit-linear", "--data", data, "--k", 3, "--tol", tol,
                   "--out", tmp_path / "o")
        assert code == cli.EXIT_CONFIG
        assert "field 'rel_tol'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_max_iters_exits_config(self, tmp_path):
        data = gen_dataset(tmp_path)
        code = run("fit-linear", "--data", data, "--k", 3, "--max-iters", -5,
                   "--out", tmp_path / "o")
        assert code == cli.EXIT_CONFIG
        assert not (tmp_path / "o").exists()


class TestFitDeep:
    def fit(self, tmp_path, data, out_name="deep", *extra, k=3):
        arch = tmp_path / "arch.json"
        arch.write_text(json.dumps({"encoder_hidden": [8],
                                    "decoder_hidden": [8]}))
        hyper = tmp_path / "hyper.json"
        hyper.write_text(json.dumps({"epochs": 2, "batch": 40}))
        out = tmp_path / out_name
        code = run("fit-deep", "--data", data, "--k", k, "--arch", arch,
                   "--hyper", hyper, "--seed", 1, "--out", out, *extra)
        return code, out

    def test_outputs_with_vertex_recovery(self, tmp_path):
        data = gen_dataset(tmp_path)
        code, out = self.fit(tmp_path, data)
        assert code == cli.EXIT_OK
        for name in ("model.json", "history.csv", "latent_scatter.csv",
                     "vertex_recovery.json", "manifest.json"):
            assert (out / name).exists()
        model = datasets.read_model(str(out / "model.json"))
        assert isinstance(model, deep_aa.DeepAaModel)
        report = json.loads((out / "vertex_recovery.json").read_text())
        assert "archetype_loss" in report

    def test_zero_epochs_write_a_header_only_history(self, tmp_path):
        hyper = tmp_path / "zero.json"
        hyper.write_text(json.dumps({"epochs": 0}))
        out = tmp_path / "deep"
        assert run("fit-deep", "--data", gen_dataset(tmp_path), "--k", 3, "--hyper", hyper,
                   "--out", out) == cli.EXIT_OK
        assert (out / "history.csv").read_text() == ",".join(deep_aa.HISTORY_COLUMNS) + "\n"

    def test_manifest_records_epochs_run(self, tmp_path):
        code, out = self.fit(tmp_path, gen_dataset(tmp_path))
        assert code == cli.EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stop"] == {"reason": "epochs done", "epochs": 2}

    def test_k_ten_writes_vertex_recovery(self, tmp_path):
        data = gen_dataset(tmp_path, p=10, k=10)
        code, out = self.fit(tmp_path, data, k=10)
        assert code == cli.EXIT_OK
        report = json.loads((out / "vertex_recovery.json").read_text())
        assert sorted(report["vertex_assignment"]) == list(range(10))
        assert sorted(report["generation_assignment"]) == list(range(10))

    def test_rerun_byte_identical(self, tmp_path):
        data = gen_dataset(tmp_path)
        names = ("model.json", "history.csv", "latent_scatter.csv")
        _, out1 = self.fit(tmp_path, data, "d1")
        _, out2 = self.fit(tmp_path, data, "d2")
        assert file_bytes(out1, names) == file_bytes(out2, names)

    def test_ztrue_of_another_width_exits_config_before_training(self, tmp_path):
        data = tmp_path / "X.csv"
        datasets.write_matrix_csv(np.ones((200, 3)), ["x0", "x1", "x2"], str(data))
        datasets.write_matrix_csv(np.ones((3, 2)), ["x0", "x1"], str(tmp_path / "X.ztrue.csv"))
        code, out = self.fit(tmp_path, data)
        assert code == cli.EXIT_CONFIG
        assert not (out / "model.json").exists()

    def test_side_info_without_labels_exits_config(self, tmp_path):
        data = gen_dataset(tmp_path)
        code, _ = self.fit(tmp_path, data, "d3", "--side-info")
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("column, name", [("x1", "X"), ("label", "labels")])
    def test_non_finite_data_exits_numerical(self, tmp_path, capsys, column, name):
        data = write_non_finite_csv(tmp_path, column)
        code, out = self.fit(tmp_path, data, "deep", "--side-info", k=2)
        assert code == cli.EXIT_NUMERICAL
        assert f"{name} contains non-finite entries" in capsys.readouterr().err
        assert not out.exists()

    def test_arch_side_head_trains_without_side_info(self, tmp_path):
        # a fit trains a side head exactly when its arch has side_hidden
        arch = tmp_path / "side.json"
        arch.write_text(json.dumps(SIDE_ARCH))
        out = tmp_path / "deep"
        assert run("fit-deep", "--data", write_labelled_csv(tmp_path), "--k", 2,
                   "--arch", arch, "--out", out) == cli.EXIT_OK
        assert run("sample", "--model", out / "model.json", "--weights", "0.5,0.5",
                   "--out", tmp_path / "s") == cli.EXIT_OK
        _, header = datasets.read_matrix_csv(str(tmp_path / "s" / "sample.csv"))
        assert header == ["x0", "x1", "label"]

    def test_arch_side_head_without_labels_exits_config(self, tmp_path, capsys):
        arch = tmp_path / "side.json"
        arch.write_text(json.dumps(SIDE_ARCH))
        out = tmp_path / "deep"
        capsys.readouterr()
        assert run("fit-deep", "--data", write_labelled_csv(tmp_path, labels=None), "--k", 2,
                   "--arch", arch, "--out", out) == cli.EXIT_CONFIG
        assert "field 'side_hidden'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_k_exits_config(self, tmp_path):
        data = gen_dataset(tmp_path)
        code = run("fit-deep", "--data", data, "--out", tmp_path / "o")
        assert code == cli.EXIT_CONFIG

    def test_side_info_with_null_side_head_exits_config(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, side_info={"kind": "mixture_projection", "j": 0})
        arch = tmp_path / "arch.json"
        arch.write_text(json.dumps({"side_hidden": None}))
        capsys.readouterr()
        code = run("fit-deep", "--data", data, "--k", 3, "--arch", arch,
                   "--side-info", "--out", tmp_path / "o")
        assert code == cli.EXIT_CONFIG
        assert "field 'side_hidden'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_manifest_records_warnings(self, tmp_path):
        data = gen_dataset(tmp_path)
        hyper = tmp_path / "hyper.json"
        hyper.write_text(json.dumps({"epochs": 1, "batch": 2}))
        out = tmp_path / "o"
        # the warning is still shown, not only recorded
        with pytest.warns(UserWarning, match="batch size 2 below k=3"):
            code = run("fit-deep", "--data", data, "--k", 3, "--hyper", hyper,
                       "--out", out)
        assert code == cli.EXIT_OK
        warned = json.loads((out / "manifest.json").read_text())["warnings"]
        assert len(warned) == 1
        assert warned[0].startswith("UserWarning: batch size 2 below k=3")


class TestSweep:
    def test_curve_and_chosen_k(self, tmp_path):
        data = gen_dataset(tmp_path)
        out = tmp_path / "sweep"
        assert run("sweep", "--data", data, "--ks", "1,2,3,4",
                   "--fit", "linear", "--out", out) == cli.EXIT_OK
        curve, header = datasets.read_matrix_csv(str(out / "curve.csv"))
        assert header == ["k", "loss"]
        assert curve.shape == (4, 2)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["chosen_k"] in (1, 2, 3, 4)

    def test_rerun_byte_identical(self, tmp_path):
        data = gen_dataset(tmp_path)
        runs = []
        for d in ("s1", "s2"):
            out = tmp_path / d
            assert run("sweep", "--data", data, "--ks", "1,2,3",
                       "--out", out) == cli.EXIT_OK
            runs.append(file_bytes(out, ("curve.csv",)))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("fit", ["linear", "deep"])
    def test_single_row_exits_config_without_curve(self, tmp_path, capsys, fit):
        data = tmp_path / "one.csv"
        data.write_text("x0,x1\n1,2\n")
        out = tmp_path / "o"
        assert run("sweep", "--data", data, "--ks", "1,2", "--fit", fit,
                   "--out", out) == cli.EXIT_CONFIG
        assert "at least 2 rows" in capsys.readouterr().err
        assert not (out / "curve.csv").exists()

    @pytest.mark.parametrize("fit", ["linear", "deep"])
    def test_non_finite_data_exits_numerical_without_curve(self, tmp_path, capsys, fit):
        out = tmp_path / "o"
        assert run("sweep", "--data", write_non_finite_csv(tmp_path), "--ks", "1,2",
                   "--fit", fit, "--out", out) == cli.EXIT_NUMERICAL
        assert "X contains non-finite entries" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("labels, code, message", [
        ("nan", cli.EXIT_NUMERICAL, "labels contains non-finite entries"),
        (None, cli.EXIT_CONFIG, "the data has no labels"),
    ], ids=["nan-label", "no-label-column"])
    def test_side_head_labels_checked_before_any_fit(self, tmp_path, capsys, labels, code,
                                                     message):
        # the NaN is on a held-out row, which no fit trains on
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"arch": SIDE_ARCH, "hyper": {"epochs": 1}}))
        out = tmp_path / "o"
        capsys.readouterr()
        assert run("sweep", "--data", write_labelled_csv(tmp_path, labels), "--ks", "2,3",
                   "--fit", "deep", "--config", config, "--out", out) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_ks_exits_config(self, tmp_path):
        data = gen_dataset(tmp_path)
        code = run("sweep", "--data", data, "--ks", "1,two",
                   "--out", tmp_path / "o")
        assert code == cli.EXIT_CONFIG

    def test_unknown_config_key_exits_config(self, tmp_path, capsys):
        data = gen_dataset(tmp_path)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"max_iters": 50}))
        code = run("sweep", "--data", data, "--ks", "1,2,3", "--config", config,
                   "--out", tmp_path / "o")
        assert code == cli.EXIT_CONFIG
        assert "'max_iters'" in capsys.readouterr().err
        assert not (tmp_path / "o" / "curve.csv").exists()

    def test_failed_ks_recorded_in_manifest(self, tmp_path):
        # 108 training rows: k=200 cannot be fit
        data = gen_dataset(tmp_path)
        out = tmp_path / "o"
        assert run("sweep", "--data", data, "--ks", "200",
                   "--out", out) == cli.EXIT_OK
        assert (out / "curve.csv").read_text() == "k,loss\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["failures"]["200"].startswith("DimensionError")

    def test_manifest_records_how_each_fit_stopped(self, tmp_path):
        data = gen_dataset(tmp_path)
        out = tmp_path / "o"
        assert run("sweep", "--data", data, "--ks", "1,2,3",
                   "--out", out) == cli.EXIT_OK
        stops = json.loads((out / "manifest.json").read_text())["config"]["stops"]
        assert sorted(stops) == ["1", "2", "3"]
        for stop in stops.values():
            assert sorted(stop) == ["iterations", "reason"]
            assert stop["reason"] in ("converged", "iteration cap")
            assert stop["iterations"] >= 1

    def test_worker_warning_recorded_once_in_manifest(self, tmp_path):
        data = gen_dataset(tmp_path)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"arch": {"encoder_hidden": [8], "decoder_hidden": [8]},
                                      "hyper": {"epochs": 1, "batch": 2}}))
        out = tmp_path / "o"
        # only the k=3 fit, run in a worker process, has a batch below k
        with pytest.warns(UserWarning, match="batch size 2 below k=3"):
            code = run("sweep", "--data", data, "--ks", "2,3", "--fit", "deep",
                       "--config", config, "--out", out)
        assert code == cli.EXIT_OK
        warned = json.loads((out / "manifest.json").read_text())["warnings"]
        assert len(warned) == 1
        assert warned[0].startswith("UserWarning: batch size 2 below k=3")


@pytest.mark.parametrize("command, argv, message", [
    ("gen-data", [], "got -1"),
    ("fit-linear", ["--k", 3, "--seed", -1], "got -1"),
    ("fit-deep", ["--k", 3, "--seed", -5], "got -5"),
    ("sweep", ["--ks=-1,2"], "at least 1, got -1"),
    ("sweep", ["--ks=0,2"], "at least 1, got 0"),
    ("sweep", ["--ks", "1,2", "--seed=-1"], "got -1"),
    ("sample", ["--weights", "0.2,0.3,0.5", "--noise", "--seed", -1], "got -1"),
], ids=["gen-data", "fit-linear", "fit-deep", "sweep-ks", "sweep-zero-k", "sweep-seed",
        "sample"])
def test_negative_seed_or_count_exits_config(tmp_path, capsys, fitted, command, argv,
                                             message):
    if command == "gen-data":
        argv = ["--spec", write_spec(tmp_path, embed_seed=-1)]
    elif command == "sample":
        argv = ["--model", fitted["model"], *argv]
    else:
        argv = ["--data", fitted["data"], *argv]
    capsys.readouterr()
    assert run(command, *argv, "--out", tmp_path / "o") == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


class TestInterpolateAndSample:
    @pytest.fixture
    def deep_model_path(self, tmp_path):
        data = gen_dataset(tmp_path)
        code, out = TestFitDeep().fit(tmp_path, data)
        assert code == cli.EXIT_OK
        return out / "model.json"

    def test_interpolate_rows_and_endpoints(self, tmp_path, deep_model_path):
        out = tmp_path / "interp"
        assert run("interpolate", "--model", deep_model_path,
                   "--from", "1,0,0", "--to", "0,0,1", "--steps", 6,
                   "--out", out) == cli.EXIT_OK
        rows, _ = datasets.read_matrix_csv(str(out / "interpolation.csv"))
        assert rows.shape[0] == 6
        model = datasets.read_model(str(deep_model_path))
        start, _ = deep_aa.generate(model, np.array([1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(rows[0], start)

    def test_interpolate_rejects_linear_model(self, tmp_path):
        data = gen_dataset(tmp_path)
        fit = tmp_path / "lin"
        assert run("fit-linear", "--data", data, "--k", 2,
                   "--out", fit) == cli.EXIT_OK
        code = run("interpolate", "--model", fit / "model.json",
                   "--from", "1,0", "--to", "0,1", "--out", tmp_path / "o")
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("case", ["not-an-object", "missing-key", "bad-layer-state",
                                      *MISFIT_DEEP_MODELS])
    def test_malformed_model_exits_config(self, tmp_path, capsys, case):
        model = tmp_path / "m.json"
        model.write_text(MALFORMED_MODELS[case] if case in MALFORMED_MODELS
                         else json.dumps(deep_model_payload(MISFIT_DEEP_MODELS[case])))
        code = run("interpolate", "--model", model, "--from", "1,0,0",
                   "--to", "0,0,1", "--out", tmp_path / "o")
        assert code == cli.EXIT_CONFIG
        assert str(model) in capsys.readouterr().err

    def test_schema_one_model_exits_config(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        model.write_text(json.dumps(deep_model_payload(lambda d: d.update(schema_version=1))))
        code = run("interpolate", "--model", model, "--from", "1,0,0",
                   "--to", "0,0,1", "--out", tmp_path / "o")
        assert code == cli.EXIT_CONFIG
        assert "schema version 1 unsupported" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sample_deterministic_with_noise(self, tmp_path, deep_model_path):
        rows = []
        for d in ("n1", "n2"):
            out = tmp_path / d
            assert run("sample", "--model", deep_model_path,
                       "--weights", "0.2,0.3,0.5", "--noise", "--seed", 9,
                       "--out", out) == cli.EXIT_OK
            rows.append((out / "sample.csv").read_bytes())
        assert rows[0] == rows[1]

    def test_sample_wrong_weight_count_exits_config(self, tmp_path,
                                                    deep_model_path):
        code = run("sample", "--model", deep_model_path, "--weights", "1,0",
                   "--out", tmp_path / "o")
        assert code == cli.EXIT_CONFIG

    def test_non_finite_weights_exit_config(self, tmp_path, deep_model_path):
        assert run("sample", "--model", deep_model_path, "--weights", "nan,0.5,0.5",
                   "--out", tmp_path / "s") == cli.EXIT_CONFIG
        assert run("interpolate", "--model", deep_model_path, "--from", "nan,0,1",
                   "--to", "0,0,1", "--out", tmp_path / "i") == cli.EXIT_CONFIG
        assert not (tmp_path / "s").exists() and not (tmp_path / "i").exists()


class TestPlot:
    def test_line_chart_is_valid_svg(self, tmp_path):
        csv = tmp_path / "curve.csv"
        csv.write_text("k,loss\n1,5.0\n2,2.0\n3,1.0\n")
        out = tmp_path / "curve.svg"
        assert run("plot", "--in", csv, "--kind", "line",
                   "--out", out) == cli.EXIT_OK
        root = ET.parse(out).getroot()
        assert root.tag.endswith("svg")

    def test_scatter_with_tag_column(self, tmp_path):
        csv = tmp_path / "scatter.csv"
        csv.write_text("pc1,pc2,tag\n0,0,0\n1,1,0\n2,0,1\n")
        out = tmp_path / "scatter.svg"
        assert run("plot", "--in", csv, "--out", out) == cli.EXIT_OK
        text = out.read_text()
        assert "archetypes" in text and "data" in text

    def test_unknown_kind_exits_config(self, tmp_path):
        csv = tmp_path / "c.csv"
        csv.write_text("a,b\n1,2\n")
        assert run("plot", "--in", csv, "--kind", "pie",
                   "--out", tmp_path / "c.svg") == cli.EXIT_CONFIG

    def test_unknown_kind_rejected_before_reading_input(self, tmp_path):
        assert run("plot", "--in", tmp_path / "absent.csv", "--kind", "pie",
                   "--out", tmp_path / "c.svg") == cli.EXIT_CONFIG

    def test_single_column_exits_config(self, tmp_path):
        csv = tmp_path / "one.csv"
        csv.write_text("a\n1\n2\n")
        assert run("plot", "--in", csv, "--out",
                   tmp_path / "one.svg") == cli.EXIT_CONFIG

    def test_non_finite_input_exits_numerical(self, tmp_path):
        csv = tmp_path / "nan.csv"
        csv.write_text("a,b\n1,2\nnan,3\n4,5\n")
        assert run("plot", "--in", csv, "--out",
                   tmp_path / "nan.svg") == cli.EXIT_NUMERICAL
        assert not (tmp_path / "nan.svg").exists()

    def test_missing_input_exits_io(self, tmp_path):
        assert run("plot", "--in", tmp_path / "absent.csv", "--out",
                   tmp_path / "x.svg") == cli.EXIT_IO


def run_with_config(tmp_path, capsys, command, option, payload):
    """Run ``command`` (a subcommand, then any options of its own) with
    ``payload`` as the JSON file given to ``option``; output captured before
    the command runs is discarded."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    command, *extra = command.split()
    extra += {"gen-data": [], "sweep": ["--ks", "1,2"], "fit-deep": ["--k", 3]}[command]
    if extra:
        extra += ["--data", gen_dataset(tmp_path)]
    capsys.readouterr()
    return run(command, option, config, "--out", tmp_path / "o", *extra)


@pytest.mark.parametrize("command, option, payload, field", [
    ("sweep", "--config", {"rel_tol": "x"}, "rel_tol"),
    ("fit-deep", "--hyper", {"lr": "x"}, "lr"),
    ("fit-deep", "--hyper", {"epochs": 1.5}, "epochs"),
    ("fit-deep", "--arch", {"encoder_hidden": 64}, "encoder_hidden"),
    ("gen-data", "--spec", {"n": "x", "p": 3, "k": 3}, "n"),
    ("gen-data", "--spec", {"p": 3, "k": 3}, "n"),
    ("gen-data", "--spec", {"n": 9, "p": 3, "k": 3, "side_info": 3}, "side_info"),
    ("gen-data", "--spec", {"n": 9, "p": 3, "k": 3, "side_info": {"kind": 1}},
     "side_info.kind"),
    ("gen-data", "--spec", {"n": 9, "p": 3, "k": 3, "side_info": {"j": "x"}},
     "side_info.j"),
    ("gen-data", "--spec", {"n": 9, "p": 3, "k": 3, "side_info": {"j": 1.5}},
     "side_info.j"),
    ("gen-data", "--spec",
     {"n": 9, "p": 3, "k": 3, "side_info": {"kind": "linear_combo", "w": "x"}},
     "side_info.w"),
    ("gen-data", "--spec",
     {"n": 9, "p": 3, "k": 3, "side_info": {"kind": "linear_combo", "w": [1, "x", 0]}},
     "side_info.w"),
    # misspelled keys are rejected, not left out in favour of a default
    ("gen-data", "--spec", {"n": 9, "p": 3, "k": 3, "sigma": 0.5}, "sigma"),
    ("gen-data", "--spec", {"n": 9, "p": 3, "k": 3, "side_info": {"J": 1}}, "J"),
    ("fit-deep", "--hyper", {"learning_rate": 0.01}, "learning_rate"),
    ("fit-deep", "--arch", {"hidden": [8]}, "hidden"),
    # the data gives input_dim and the command gives k and the seed
    ("fit-deep", "--arch", {"k": 3}, "k"),
    ("fit-deep", "--arch", {"input_dim": 4}, "input_dim"),
    ("fit-deep", "--hyper", {"seed": 1}, "seed"),
    # each item of a list field is checked as a field of its own
    ("fit-deep", "--arch", {"encoder_hidden": [True]}, "encoder_hidden"),
    ("fit-deep", "--arch", {"decoder_hidden": [8, 2.5]}, "decoder_hidden"),
    ("sweep --fit deep", "--config", {"arch": {"decoder_hidden": [True, 4]}},
     "decoder_hidden"),
    ("gen-data", "--spec", {"n": 9, "p": 3, "k": 3, "alpha": [True, "2", 3]}, "alpha"),
    # a number field takes finite numbers only; 1e400 reads as infinity
    ("fit-deep", "--hyper", {"epochs": 0, "at_weight": 1e400}, "at_weight"),
    ("gen-data", "--spec", {"n": 9, "p": 3, "k": 3, "sigma2": 1e400}, "sigma2"),
    ("gen-data", "--spec", {"n": 9, "p": 3, "k": 3, "alpha": [1e400, 1, 1]}, "alpha"),
    ("sweep", "--config", {"rel_tol": -1e400}, "rel_tol"),
    # an activation no network knows is wrong for every k of a sweep
    ("fit-deep", "--arch", {"activation": "sigmoid"}, "activation"),
    ("sweep --fit deep", "--config", {"arch": {"activation": "sigmoid"}}, "activation"),
    # a spec holds SyntheticSpec's own fields: warp is a string, warp_dim an int
    ("gen-data", "--spec", {"n": 9, "p": 3, "k": 3, "warp": {"kind": "exp", "dim": 0}},
     "warp"),
    # a layer of no units
    ("fit-deep", "--arch", {"encoder_hidden": [0]}, "encoder_hidden"),
])
def test_mistyped_or_missing_config_field_exits_config(tmp_path, capsys, command,
                                                       option, payload, field):
    code = run_with_config(tmp_path, capsys, command, option, payload)
    assert code == cli.EXIT_CONFIG
    assert f"field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# deep configs no fit can take, as (part, payload, the field the error
# names); fit-deep reads each part from its own file, sweep from one object
BAD_DEEP_CONFIGS = {
    "unknown-arch-key": ("arch", {"hidden": [8]}, "hidden"),
    "unknown-hyper-key": ("hyper", {"learning_rate": 0.01}, "learning_rate"),
    "arch-k": ("arch", {"k": 3}, "k"),
    "arch-input-dim": ("arch", {"input_dim": 4}, "input_dim"),
    "hyper-seed": ("hyper", {"seed": 1}, "seed"),
    "zero-width": ("arch", {"decoder_hidden": [8, 0]}, "decoder_hidden"),
    "unknown-activation": ("arch", {"activation": "sigmoid"}, "activation"),
}


@pytest.mark.parametrize("command", ["fit-deep", "sweep --fit deep"])
@pytest.mark.parametrize("case", BAD_DEEP_CONFIGS)
def test_bad_deep_config_exits_config_in_both_commands(tmp_path, capsys, command, case):
    part, payload, field = BAD_DEEP_CONFIGS[case]
    option, payload = ((f"--{part}", payload) if command == "fit-deep"
                       else ("--config", {part: payload}))
    assert run_with_config(tmp_path, capsys, command, option, payload) == cli.EXIT_CONFIG
    assert f"field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("payload, message", [
    ({"lr": -1.0}, "field 'lr' must be > 0"),
    ({"lr": float("nan")}, "field 'lr' must be a finite number"),
    ({"lambda0": float("nan")}, "field 'lambda0' must be a finite number"),
    ({"epochs": 1, "at_weight": -1.0}, "field 'at_weight' must be >= 0"),
    ({"epochs": 1, "side_weight": float("nan")}, "field 'side_weight' must be a finite number"),
    ({"epochs": 1, "lambda_growth": float("nan"), "lambda_every": 1},
     "field 'lambda_growth' must be a finite number"),
], ids=["negative-lr", "nan-lr", "nan-lambda0", "negative-at-weight", "nan-side-weight",
        "nan-lambda-growth"])
def test_out_of_range_hyper_exits_config(tmp_path, capsys, payload, message):
    code = run_with_config(tmp_path, capsys, "fit-deep", "--hyper", payload)
    assert code == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, option", [
    ("gen-data", "--spec"),
    ("fit-deep", "--arch"),
    ("fit-deep", "--hyper"),
    ("sweep", "--config"),
])
def test_config_that_is_not_an_object_exits_config(tmp_path, capsys, command, option):
    code = run_with_config(tmp_path, capsys, command, option, [1])
    assert code == cli.EXIT_CONFIG
    assert str(tmp_path / "config.json") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


MANIFEST_KEYS = {"command", "config", "seeds", "inputs", "outputs", "warnings",
                 "git_describe", "duration_seconds", "environment"}


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """Paths for the manifest tests: a spec, a gen-data directory from it,
    small arch and hyper files, and a deep model fitted with them."""
    tmp = tmp_path_factory.mktemp("fitted")
    code, deep = TestFitDeep().fit(tmp, gen_dataset(tmp))
    assert code == cli.EXIT_OK
    return {"spec": tmp / "spec.json", "data": tmp / "data", "arch": tmp / "arch.json",
            "hyper": tmp / "hyper.json", "model": deep / "model.json"}


DEEP_FILES = {"model.json", "history.csv", "latent_scatter.csv"}


@pytest.mark.parametrize("argv, files", [
    (["gen-data", "--spec", "{spec}"], {"X.csv", "X.atrue.csv", "X.ztrue.csv"}),
    (["fit-linear", "--data", "{data}", "--k", "3"],
     {"model.json", "rss_log.csv", "pca_scatter.csv"}),
    # vertex_recovery.json only when the ground truth has k archetypes
    (["fit-deep", "--data", "{data}", "--k", "3", "--arch", "{arch}", "--hyper", "{hyper}"],
     DEEP_FILES | {"vertex_recovery.json"}),
    (["fit-deep", "--data", "{data}", "--k", "2", "--arch", "{arch}", "--hyper", "{hyper}"],
     DEEP_FILES),
    (["sweep", "--data", "{data}", "--ks", "1,2"], {"curve.csv"}),
    (["interpolate", "--model", "{model}", "--from", "1,0,0", "--to", "0,0,1"],
     {"interpolation.csv"}),
    (["sample", "--model", "{model}", "--weights", "0.2,0.3,0.5"], {"sample.csv"}),
], ids=["gen-data", "fit-linear", "fit-deep", "fit-deep-no-recovery", "sweep",
        "interpolate", "sample"])
def test_manifest_keys_and_outputs(tmp_path, fitted, argv, files):
    out = tmp_path / "o"
    assert run(*(a.format(**fitted) for a in argv), "--out", out) == cli.EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    solver = argv[0] in ("fit-linear", "fit-deep")
    assert set(manifest) == MANIFEST_KEYS | ({"stop"} if solver else set())
    assert manifest["command"] == argv[0]
    assert manifest["inputs"] == [argv[2].format(**fitted)]
    assert manifest["warnings"] == []
    assert {f.name for f in out.iterdir()} == files | {"manifest.json"}
    assert sorted(manifest["outputs"]) == sorted(str(out / name) for name in files)
    environment = manifest["environment"]
    assert set(environment) == {"numpy", "blas", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "cpus"}
    assert environment["numpy"] == np.__version__
    assert set(environment["blas"]) == {"name", "version", "openblas configuration"}
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        assert environment[variable] == os.environ.get(variable)
    assert environment["cpus"] == len(os.sched_getaffinity(0))
    if argv[0] == "sweep":
        assert manifest["config"]["workers"] == min(2, len(os.sched_getaffinity(0)))
        assert sorted(manifest["config"]["seconds"]) == ["1", "2"]


def test_pipeline_writes_every_file_in_standard_json(tmp_path):
    # the labelled exp-warped pipeline: each command writes all its files,
    # and every JSON file parses without NaN or Infinity
    data = gen_dataset(tmp_path, warp="exp", warp_dim=0,
                       side_info={"kind": "mixture_projection", "j": 0})
    code, deep = TestFitDeep().fit(tmp_path, data, "deep", "--side-info")
    assert code == cli.EXIT_OK
    commands = {
        "linear": ["fit-linear", "--data", data, "--k", 3],
        "interp": ["interpolate", "--model", deep / "model.json", "--from", "1,0,0",
                   "--to", "0,0.5,0.5", "--steps", 7],
        "sample": ["sample", "--model", deep / "model.json", "--weights", "0.2,0.3,0.5",
                   "--noise", "--seed", 3],
        "sweep": ["sweep", "--data", data, "--ks", "1,2,3"],
    }
    for out, argv in commands.items():
        assert run(*argv, "--out", tmp_path / out) == cli.EXIT_OK
    assert run("plot", "--in", tmp_path / "linear" / "pca_scatter.csv",
               "--out", tmp_path / "scatter.svg") == cli.EXIT_OK
    written = {out: {f.name for f in (tmp_path / out).iterdir()}
               for out in ("data", "deep", *commands)}
    assert written == {
        "data": {"X.csv", "X.atrue.csv", "X.ztrue.csv", "manifest.json"},
        "deep": DEEP_FILES | {"vertex_recovery.json", "manifest.json"},
        "linear": {"model.json", "rss_log.csv", "pca_scatter.csv", "manifest.json"},
        "interp": {"interpolation.csv", "manifest.json"},
        "sample": {"sample.csv", "manifest.json"},
        "sweep": {"curve.csv", "manifest.json"},
    }
    assert (tmp_path / "scatter.svg").exists()

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    for path in tmp_path.glob("*/*.json"):
        json.loads(path.read_text(), parse_constant=reject)


def archlab_process(*argv, threads=None, cpus=None):
    """``python -m archlab.cli`` in a child process, with the BLAS thread
    count set when ``threads`` is given and the child pinned to the CPUs
    ``cpus`` when they are given."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    if threads is not None:
        env.update(OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    return subprocess.run([sys.executable, "-m", "archlab.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=300,
                          preexec_fn=pin)


def test_module_entry_point(tmp_path):
    ok = archlab_process("gen-data", "--spec", write_spec(tmp_path), "--out", tmp_path / "data")
    assert ok.returncode == cli.EXIT_OK, ok.stderr
    assert (tmp_path / "data" / "manifest.json").exists()
    bad = archlab_process("gen-data", "--spec", write_spec(tmp_path, n="x"),
                          "--out", tmp_path / "o")
    assert bad.returncode == cli.EXIT_CONFIG
    assert bad.stderr.startswith("error:") and "field 'n'" in bad.stderr


def test_linear_outputs_do_not_depend_on_blas_threads(tmp_path):
    # 12 000 rows, 10 800 of them in the sweep's training split: OpenBLAS
    # splits a strided dot product across its threads above 10 000 entries.
    # The data is warped like c02's seed 4.
    spec = write_spec(tmp_path, n=12_000, p=8, sigma2=0.05, embed_seed=104,
                      sample_seed=204, warp="exp", warp_dim=1)
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"max_outer_iters": 50}))
    digests = []
    for threads in (1, 2):  # two threads are enough to split the work
        out = tmp_path / f"threads{threads}"
        for argv in (("gen-data", "--spec", spec, "--out", out / "data"),
                     ("fit-linear", "--data", out / "data", "--k", 3, "--max-iters", 50,
                      "--seed", 1, "--out", out / "fit"),
                     ("sweep", "--data", out / "data", "--ks", "1,2,3", "--config", config,
                      "--out", out / "sweep")):
            done = archlab_process(*argv, threads=threads)
            assert done.returncode == cli.EXIT_OK, done.stderr
        digests.append({str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in out.rglob("*")
                        if path.is_file() and path.name != "manifest.json"})
    assert len(digests[0]) == 7
    assert digests[0] == digests[1]


def test_deep_outputs_do_not_depend_on_blas_threads(tmp_path):
    # a few thousand labelled rows: training, encoding and decoding run
    # matrix products large enough for OpenBLAS to split across threads
    spec = write_spec(tmp_path, n=3_000, p=8, sigma2=0.05, embed_seed=104, sample_seed=204,
                      side_info={"kind": "mixture_projection", "j": 0})
    hyper, config = tmp_path / "hyper.json", tmp_path / "sweep.json"
    hyper.write_text(json.dumps({"epochs": 2}))
    config.write_text(json.dumps({"hyper": {"epochs": 1}}))
    digests = []
    for threads in (1, 2):  # two threads are enough to split the work
        out = tmp_path / f"threads{threads}"
        model = out / "fit" / "model.json"
        for argv in (("gen-data", "--spec", spec, "--out", out / "data"),
                     ("fit-deep", "--data", out / "data", "--k", 3, "--hyper", hyper,
                      "--side-info", "--seed", 1, "--out", out / "fit"),
                     ("interpolate", "--model", model, "--from", "1,0,0", "--to", "0,0.5,0.5",
                      "--out", out / "interpolate"),
                     ("sample", "--model", model, "--weights", "0.2,0.3,0.5", "--noise",
                      "--seed", 3, "--out", out / "sample"),
                     ("sweep", "--data", out / "data", "--ks", "2,3", "--fit", "deep",
                      "--config", config, "--out", out / "sweep")):
            done = archlab_process(*argv, threads=threads)
            assert done.returncode == cli.EXIT_OK, done.stderr
        digests.append({str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in out.rglob("*")
                        if path.is_file() and path.name != "manifest.json"})
    assert len(digests[0]) == 10
    assert digests[0] == digests[1]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs")
def test_sweep_outputs_do_not_depend_on_worker_count(tmp_path):
    data = gen_dataset(tmp_path, n=2_000, p=8, sigma2=0.05)
    config = tmp_path / "deep.json"
    config.write_text(json.dumps({"arch": {"encoder_hidden": [8], "decoder_hidden": [8]},
                                  "hyper": {"epochs": 1}}))
    sweeps = {"linear": ("--ks", "1,2,3,4"),
              "deep": ("--ks", "2,3", "--fit", "deep", "--config", config)}
    runs = {}
    for count in (1, 2):
        cpus = set(sorted(os.sched_getaffinity(0))[:count])
        for fit, argv in sweeps.items():
            out = tmp_path / f"{fit}{count}"
            done = archlab_process("sweep", "--data", data, *argv, "--out", out, cpus=cpus)
            assert done.returncode == cli.EXIT_OK, done.stderr
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["environment"]["cpus"] == count
            assert manifest["config"]["workers"] == count
            runs[fit, count] = (hashlib.sha256((out / "curve.csv").read_bytes()).hexdigest(),
                                manifest["config"]["stops"])
    for fit in sweeps:
        assert runs[fit, 1] == runs[fit, 2]
    assert len(runs["linear", 1][1]) == 4


def test_readme_command_lines_parse():
    # every archlab line of README.md's shell blocks, continuations joined,
    # and every inline `<command> --flag`, fits the parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    blocks = "".join(re.findall(r"```sh\n(.*?)```", readme, re.S)).replace("\\\n", " ")
    lines = [line for line in blocks.splitlines() if line.startswith("archlab ")]
    flags = []  # (command, flag): argparse would take an abbreviated flag
    for line in lines:
        argv = shlex.split(line)[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")
        flags += [(argv[0], a.split("=")[0]) for a in argv if a.startswith("--")]
    assert {line.split()[1] for line in lines} == set(commands)
    inline = [(c, f) for c, f in re.findall(r"`([a-z-]+) (--[a-z-]+)", readme) if c in commands]
    assert inline
    for command, flag in flags + inline:
        assert flag in commands[command]._option_string_actions, f"`{command} {flag}`"
