import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from archlab import cli, datasets, deep_aa, linear_aa

from test_datasets import MISFIT_DEEP_MODELS, deep_model_payload


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

    def test_invalid_field_exits_config(self, tmp_path, capsys):
        spec = write_spec(tmp_path, warp={"kind": "exp", "dim": 9})
        code = run("gen-data", "--spec", spec, "--out", tmp_path / "o")
        assert code == cli.EXIT_CONFIG
        assert "warp_dim" in capsys.readouterr().err

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

    def test_side_info_without_labels_exits_config(self, tmp_path):
        data = gen_dataset(tmp_path)
        code, _ = self.fit(tmp_path, data, "d3", "--side-info")
        assert code == cli.EXIT_CONFIG

    def test_missing_k_exits_config(self, tmp_path):
        data = gen_dataset(tmp_path)
        code = run("fit-deep", "--data", data, "--out", tmp_path / "o")
        assert code == cli.EXIT_CONFIG


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
            assert sorted(stop) == ["converged", "iterations"]
            assert isinstance(stop["converged"], bool) and stop["iterations"] >= 1


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

    @pytest.mark.parametrize("payload", [
        [1],
        {"schema_version": 1, "kind": "linear_aa"},
        {"schema_version": 1, "kind": "deep_aa", "arch": {"input_dim": 3, "k": 3},
         "trunk": [1]},
        *(deep_model_payload(edit) for edit in MISFIT_DEEP_MODELS.values()),
    ], ids=["not-an-object", "missing-key", "bad-layer-state", *MISFIT_DEEP_MODELS])
    def test_malformed_model_exits_config(self, tmp_path, capsys, payload):
        model = tmp_path / "m.json"
        model.write_text(json.dumps(payload))
        code = run("interpolate", "--model", model, "--from", "1,0,0",
                   "--to", "0,0,1", "--out", tmp_path / "o")
        assert code == cli.EXIT_CONFIG
        assert str(model) in capsys.readouterr().err

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

    def test_missing_input_exits_io(self, tmp_path):
        assert run("plot", "--in", tmp_path / "absent.csv", "--out",
                   tmp_path / "x.svg") == cli.EXIT_IO


def run_with_config(tmp_path, capsys, command, option, payload):
    """Run ``command`` with ``payload`` as the JSON file given to ``option``;
    output captured before the command runs is discarded."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    extra = {"gen-data": [], "sweep": ["--ks", "1,2"], "fit-deep": ["--k", 3]}[command]
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
])
def test_mistyped_or_missing_config_field_exits_config(tmp_path, capsys, command,
                                                       option, payload, field):
    code = run_with_config(tmp_path, capsys, command, option, payload)
    assert code == cli.EXIT_CONFIG
    assert f"field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("payload, message", [
    ({"lr": -1.0}, "field 'lr' must be > 0"),
    ({"lr": float("nan")}, "field 'lr' must be > 0"),
    ({"lambda0": float("nan")}, "field 'lambda0' must be > 0"),
    ({"epochs": 1, "at_weight": -1.0}, "field 'at_weight' must be >= 0"),
    ({"epochs": 1, "side_weight": float("nan")}, "field 'side_weight' must be >= 0"),
    ({"epochs": 1, "lambda_growth": float("nan"), "lambda_every": 1},
     "field 'lambda_growth' must be > 0"),
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

