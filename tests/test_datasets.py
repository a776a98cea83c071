import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archlab import datasets, deep_aa, linear_aa, nn, numerics
from archlab.datasets import Dataset, SyntheticSpec
from archlab.errors import (
    IoError,
    MissingGroundTruth,
    NumericalError,
    ParameterError,
    ParseError,
    SchemaVersionError,
    ShapeError,
    build_config,
)


class TestSyntheticSpec:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SyntheticSpec(n=10, p=2, k=0)
        with pytest.raises(ParameterError):
            SyntheticSpec(n=10, p=2, k=4)  # intrinsic dim 3 > p
        with pytest.raises(ParameterError):
            SyntheticSpec(n=10, p=2, k=2, warp="log")
        with pytest.raises(ParameterError):
            SyntheticSpec(n=10, p=2, k=2, warp="exp", warp_dim=2)

    @pytest.mark.parametrize("fields", [
        {"sigma2": -0.1},
        {"alpha": [1.0, 1.0]},  # not a k-vector
        {"alpha": [1.0, 0.0, 1.0]},  # not positive
        {"alpha": [1.0, "one", 1.0]},
        {"p": 0, "k": 1},
        {"alpha": [True, 2.0, 3.0]},
        {"alpha": "123"},
    ], ids=["negative-sigma2", "alpha-length", "alpha-zero", "alpha-not-numbers", "p-zero",
            "alpha-boolean", "alpha-string"])
    def test_rejects_bad_generator_input(self, fields):
        with pytest.raises(ParameterError):
            SyntheticSpec(**{"n": 10, "p": 2, "k": 3, **fields})

    def test_alpha_stored_as_float_tuple(self):
        spec = SyntheticSpec(n=1, p=2, k=3, alpha=np.array([1, 2, 3]))
        assert spec.alpha == (1.0, 2.0, 3.0)
        assert all(type(v) is float for v in spec.alpha)

    def test_dict_round_trip(self):
        spec = SyntheticSpec(n=5, p=4, k=3, sigma2=0.1, embed_seed=7,
                             sample_seed=8, warp="exp", warp_dim=2)
        again = build_config(SyntheticSpec, spec.to_dict(), "spec")
        assert again == spec

    def test_dict_round_trip_with_alpha(self):
        spec = SyntheticSpec(n=5, p=4, k=3, alpha=np.array([1.0, 2.0, 3.0]))
        again = build_config(SyntheticSpec, spec.to_dict(), "spec")
        assert again == spec
        assert hash(again) == hash(spec)

    def test_rejects_unknown_or_nested_warp(self):
        # a spec holds the dataclass's own fields: warp is "none" or "exp",
        # and warp_dim is a field of its own
        for warp in ("squiggle", {"kind": "exp", "dim": 0}, None):
            with pytest.raises(ParameterError, match="field 'warp'"):
                build_config(SyntheticSpec, {"n": 1, "p": 2, "k": 2, "warp": warp}, "spec")


class TestMakeSynthetic:
    def test_benchmark_shapes(self):
        ds = datasets.make_synthetic(SyntheticSpec(n=100, p=8, k=3))
        assert ds.x.shape == (100, 8)
        assert ds.a_true.shape == (100, 3)
        assert ds.z_true.shape == (3, 8)

    def test_pca_three_components_capture_almost_all_variance(self):
        # archetypes span a 2-dim affine patch; with small noise the top
        # three principal components carry nearly all the variance (bound
        # calibrated to the benchmark's archetype spread and noise level)
        ds = datasets.make_synthetic(
            SyntheticSpec(n=10_000, p=8, k=3, sigma2=0.05, embed_seed=0,
                          sample_seed=1)
        )
        model = numerics.pca_fit(ds.x, 8)
        share = model.explained_variance[:3].sum() / model.explained_variance.sum()
        assert share >= 0.95

    def test_deterministic(self):
        spec = SyntheticSpec(n=50, p=4, k=3, embed_seed=3, sample_seed=4)
        d1 = datasets.make_synthetic(spec)
        d2 = datasets.make_synthetic(spec)
        np.testing.assert_array_equal(d1.x, d2.x)
        np.testing.assert_array_equal(d1.a_true, d2.a_true)

    def test_weights_depend_only_on_sample_seed(self):
        def weights(embed_seed, sample_seed):
            spec = SyntheticSpec(n=100, p=2, k=3, embed_seed=embed_seed,
                                 sample_seed=sample_seed)
            return datasets.make_synthetic(spec).a_true

        np.testing.assert_array_equal(weights(0, 3), weights(5, 3))
        assert not np.array_equal(weights(0, 3), weights(0, 4))

    def test_n_zero_gives_empty_dataset(self):
        ds = datasets.make_synthetic(SyntheticSpec(n=0, p=4, k=3))
        assert ds.x.shape == (0, 4)
        assert ds.z_true.shape == (3, 4)

    def test_n_zero_draws_no_weights(self):
        ds = datasets.make_synthetic(SyntheticSpec(n=0, p=2, k=3, sigma2=0.05))
        assert ds.x.shape == (0, 2)
        assert ds.a_true.shape == (0, 3)

    def test_weights_on_simplex(self):
        ds = datasets.make_synthetic(SyntheticSpec(n=500, p=2, k=3))
        np.testing.assert_allclose(ds.a_true.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(ds.a_true >= 0)

    def test_noiseless_rows_are_mixtures(self):
        ds = datasets.make_synthetic(SyntheticSpec(n=200, p=2, k=3, sigma2=0.0))
        np.testing.assert_array_equal(ds.x, ds.a_true @ ds.z_true)

    def test_noise_variance_matches_sigma2(self):
        ds = datasets.make_synthetic(
            SyntheticSpec(n=100_000, p=2, k=3, sigma2=0.05, sample_seed=5))
        assert np.var(ds.x - ds.a_true @ ds.z_true) == pytest.approx(0.05, rel=2e-2)

    def test_mean_weight_is_one_over_k(self):
        a = datasets.make_synthetic(
            SyntheticSpec(n=100_000, p=2, k=3, sample_seed=6)).a_true
        np.testing.assert_allclose(a.mean(axis=0), 1.0 / 3.0, atol=5e-3)

    def test_default_alpha_concentrates_on_vertices(self):
        # alpha_j = 1/k puts most mass near the simplex corners
        a = datasets.make_synthetic(
            SyntheticSpec(n=10_000, p=2, k=3, sample_seed=7)).a_true
        assert np.mean(a.max(axis=1) > 0.9) > 0.25

    def test_default_alpha_is_one_over_k(self):
        spec = SyntheticSpec(n=300, p=4, k=3, embed_seed=2, sample_seed=3)
        default = datasets.make_synthetic(spec)
        explicit = datasets.make_synthetic(replace(spec, alpha=[1 / 3] * 3))
        np.testing.assert_array_equal(default.x, explicit.x)
        np.testing.assert_array_equal(default.a_true, explicit.a_true)

    def test_draw_order(self):
        # weights first, then noise, both from sample_seed; the warp last
        alpha = [0.5, 1.0, 2.0]
        spec = SyntheticSpec(n=300, p=4, k=3, sigma2=0.05, embed_seed=2,
                             sample_seed=9, alpha=alpha, warp="exp", warp_dim=1)
        rng = numerics.rng_create(9)
        a = numerics.rng_dirichlet_matrix(rng, alpha, 300)
        x = a @ datasets.make_archetypes(spec)
        x = x + math.sqrt(0.05) * rng.standard_normal((300, 4))
        ds = datasets.make_synthetic(spec)
        np.testing.assert_array_equal(ds.a_true, a)
        np.testing.assert_array_equal(ds.x, datasets.apply_warp(spec, x))

    def test_warp_makes_column_positive_and_log_inverts(self):
        spec = SyntheticSpec(n=200, p=4, k=3, embed_seed=1, sample_seed=2,
                             warp="exp", warp_dim=1)
        warped = datasets.make_synthetic(spec)
        linear = datasets.make_synthetic(
            SyntheticSpec(n=200, p=4, k=3, embed_seed=1, sample_seed=2)
        )
        assert np.all(warped.x[:, 1] > 0)
        np.testing.assert_allclose(np.log(warped.x[:, 1]), linear.x[:, 1],
                                   atol=1e-12)
        # other columns untouched
        np.testing.assert_array_equal(warped.x[:, 0], linear.x[:, 0])

    def test_warp_preserves_extreme_point_identity(self):
        # the data row nearest each archetype before warping is still the
        # nearest row after warping both through the same monotone map
        spec_lin = SyntheticSpec(n=500, p=4, k=3, embed_seed=5, sample_seed=6)
        spec_wrp = SyntheticSpec(n=500, p=4, k=3, embed_seed=5, sample_seed=6,
                                 warp="exp", warp_dim=0)
        lin = datasets.make_synthetic(spec_lin)
        wrp = datasets.make_synthetic(spec_wrp)
        for j in range(3):
            before = np.argmin(np.linalg.norm(lin.x - lin.z_true[j], axis=1))
            after_x = datasets.apply_warp(spec_wrp, lin.x[before])
            np.testing.assert_allclose(after_x, wrp.x[before], atol=1e-12)

    def test_archetypes_well_separated(self):
        z = datasets.make_archetypes(SyntheticSpec(n=1, p=8, k=3, embed_seed=9))
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(z[i] - z[j]) > 1.0


class TestSideInfo:
    def _ds(self):
        return datasets.make_synthetic(SyntheticSpec(n=50, p=4, k=3))

    def test_mixture_projection_range(self):
        ds = datasets.make_side_info(self._ds(), "mixture_projection", j=1)
        assert ds.labels.shape == (50,)
        assert np.all((ds.labels >= 0) & (ds.labels <= 1))
        np.testing.assert_array_equal(ds.labels, ds.a_true[:, 1])

    def test_linear_combo_all_ones_gives_ones(self):
        ds = datasets.make_side_info(self._ds(), "linear_combo", w=np.ones(3))
        np.testing.assert_allclose(ds.labels, 1.0, atol=1e-12)

    def test_requires_ground_truth(self):
        bare = Dataset(x=np.zeros((3, 2)))
        with pytest.raises(MissingGroundTruth):
            datasets.make_side_info(bare)

    def test_rejects_bad_args(self):
        with pytest.raises(ParameterError):
            datasets.make_side_info(self._ds(), "mixture_projection", j=5)
        with pytest.raises(ParameterError):
            datasets.make_side_info(self._ds(), "linear_combo", w=np.ones(2))
        with pytest.raises(ParameterError):
            datasets.make_side_info(self._ds(), "nope")

    @pytest.mark.parametrize("args, field", [
        ({"kind": 1}, "side_info.kind"),
        ({"j": 1.5}, "side_info.j"),
        ({"j": True}, "side_info.j"),
        ({"kind": "linear_combo", "w": "x"}, "side_info.w"),
        ({"kind": "linear_combo", "w": [1, "x", 0]}, "side_info.w"),
        ({"kind": "linear_combo", "w": [1, float("nan"), 0]}, "side_info.w"),
        ({"kind": "linear_combo", "w": [1, 0, float("-inf")]}, "side_info.w"),
    ])
    def test_mistyped_args_name_their_field(self, args, field):
        with pytest.raises(ParameterError, match=re.escape(f"field '{field}'")):
            datasets.make_side_info(self._ds(), **args)


class TestCsvRoundTrip:
    def test_dataset_round_trip_bit_exact(self, tmp_path):
        ds = datasets.make_synthetic(SyntheticSpec(n=40, p=3, k=2))
        ds = datasets.make_side_info(ds, "mixture_projection", j=0)
        path = str(tmp_path / "data.csv")
        datasets.write_csv(ds, path)
        back = datasets.read_csv(path)
        np.testing.assert_array_equal(back.x, ds.x)
        np.testing.assert_array_equal(back.a_true, ds.a_true)
        np.testing.assert_array_equal(back.z_true, ds.z_true)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.columns == ds.columns

    def test_extreme_values_round_trip(self, tmp_path):
        m = np.array([[1e-300, -1e300], [np.pi, 1.0 / 3.0]])
        path = str(tmp_path / "m.csv")
        datasets.write_matrix_csv(m, ["x0", "x1"], path)
        back, header = datasets.read_matrix_csv(path)
        np.testing.assert_array_equal(back, m)
        assert header == ["x0", "x1"]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_matrices_round_trip(self, seed):
        import tempfile

        rng = numerics.rng_create(seed)
        m = rng.standard_normal((int(rng.integers(1, 8)), int(rng.integers(1, 5))))
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/m.csv"
            datasets.write_matrix_csv(m, [f"x{j}" for j in range(m.shape[1])], path)
            back, _ = datasets.read_matrix_csv(path)
        np.testing.assert_array_equal(back, m)

    def test_ztrue_of_another_width_rejected(self, tmp_path):
        path = tmp_path / "X.csv"
        datasets.write_matrix_csv(np.ones((20, 3)), ["x0", "x1", "x2"], str(path))
        datasets.write_matrix_csv(np.ones((3, 2)), ["x0", "x1"], str(tmp_path / "X.ztrue.csv"))
        with pytest.raises(ShapeError, match="Z_true width"):
            datasets.read_csv(str(path))
        with pytest.raises(ShapeError, match="Z_true width"):
            Dataset(x=np.ones((20, 3)), z_true=np.ones((3, 2)))

    @pytest.mark.parametrize("sidecars, message", [
        ({"a_true": np.ones((19, 3))}, "A_true row count"),
        ({"a_true": np.ones((20, 2)), "z_true": np.ones((3, 3))}, "Z_true row count"),
        ({"labels": np.ones(19)}, "labels must be an n-vector"),
        ({"labels": np.ones((20, 1))}, "labels must be an n-vector"),
    ], ids=["atrue-rows", "ztrue-rows-vs-atrue-width", "labels-length", "labels-column"])
    def test_sidecar_of_another_shape_rejected(self, sidecars, message):
        with pytest.raises(ShapeError, match=message):
            Dataset(x=np.ones((20, 3)), **sidecars)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x0,x1\n")
        ds = datasets.read_csv(str(path))
        assert ds.x.shape == (0, 2)
        assert ds.n == 0

    def test_ragged_row_parse_error_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1\n1.0,2.0\n3.0\n")
        with pytest.raises(ParseError, match="row 3"):
            datasets.read_matrix_csv(str(path))

    def test_non_numeric_parse_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0\n1.0\nbanana\n")
        with pytest.raises(ParseError, match="row 3"):
            datasets.read_matrix_csv(str(path))

    # a short and a non-numeric row with no blank line before them are the
    # two tests above
    @pytest.mark.parametrize("body, row", [
        ("1.0,2.0\n\n3.0\n", 4),
        ("1.0,2.0\n3.0,4.0,5.0\n", 3),
        ("1.0,2.0\n\n\n3.0,4.0,5.0\n", 5),
        ("1.0,2.0,3.0\n4.0,5.0,6.0\n", 2),  # every row wider than the header
        ("\n1.0,2.0,3.0\n", 3),
        ("1.0,2.0\n\n3.0,banana\n", 4),
        ('1.0,2.0\n"3.0",4.0\n', 3),
        ("1.0,2.0\n3_000,4.0\n", 3),
        ("1.0,2.0 # note\n", 2),
    ], ids=["short-after-blank", "wide", "wide-after-blanks", "all-wide",
            "all-wide-after-blank", "non-numeric-after-blank", "quoted-number",
            "underscore-number", "comment"])
    def test_parse_error_names_file_row(self, tmp_path, body, row):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1\n" + body)
        with pytest.raises(ParseError, match=f"row {row}:"):
            datasets.read_matrix_csv(str(path))

    def test_crlf_file_parses(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"x0,x1\r\n1.5,-2\r\n3,4e-3\r\n")
        m, header = datasets.read_matrix_csv(str(path))
        np.testing.assert_array_equal(m, [[1.5, -2.0], [3.0, 4e-3]])
        assert header == ["x0", "x1"]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("x0,x1\n\n1,2\n\n3,4\n\n")
        m, _ = datasets.read_matrix_csv(str(path))
        np.testing.assert_array_equal(m, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("text", ["x0,x1\n", "x0,x1", "x0,x1\n\n\r\n"],
                             ids=["header-only", "no-newline", "blank-lines"])
    def test_header_without_rows_loads_without_warning(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m, header = datasets.read_matrix_csv(str(path))
        assert m.shape == (0, 2) and m.dtype == np.float64
        assert header == ["x0", "x1"]

    @pytest.mark.parametrize("m", [np.ones((2, 3)), np.ones(2), np.zeros(0), np.ones((1, 1, 2))],
                             ids=["too wide", "1-D", "empty 1-D", "3-D"])
    def test_matrix_not_as_wide_as_its_header_rejected(self, tmp_path, m):
        path = tmp_path / "m.csv"
        with pytest.raises(ShapeError, match="header of 2 columns"):
            datasets.write_matrix_csv(m, ["x0", "x1"], str(path))
        assert not path.exists()

    def test_written_bytes(self, tmp_path):
        m = np.array([[-0.0, np.nan, np.inf, -np.inf],
                      [5e-324, 1.0 / 3.0, 1e16, 1.0],
                      [0.1, -2.5, 1e-300, 123456789.0]])
        path = tmp_path / "golden.csv"
        datasets.write_matrix_csv(m, ["x0", "mass, g", "x2", "label"], str(path))
        assert path.read_bytes() == (
            b'x0,"mass, g",x2,label\n'
            b"-0,nan,inf,-inf\n"
            b"4.9406564584124654e-324,0.33333333333333331,10000000000000000,1\n"
            b"0.10000000000000001,-2.5,1e-300,123456789\n")
        back, header = datasets.read_matrix_csv(str(path))
        assert header == ["x0", "mass, g", "x2", "label"]
        np.testing.assert_array_equal(back, m)
        assert np.signbit(back[0, 0])

    @given(st.integers(1, 6), st.integers(1, 4), st.data())
    @settings(max_examples=50, deadline=None)
    def test_written_text_is_17_digits_of_every_bit_pattern(self, rows, cols, data):
        import tempfile

        bits = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=rows * cols,
                                  max_size=rows * cols))
        m = np.array(bits, dtype=np.uint64).view(np.float64).reshape(rows, cols)
        header = [f"x{j}" for j in range(cols)]
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/m.csv"
            datasets.write_matrix_csv(m, header, path)
            with open(path, newline="") as fh:
                text = fh.read()
            back, _ = datasets.read_matrix_csv(path)
        assert text == ",".join(header) + "\n" + "".join(
            ",".join(format(v, ".17g") for v in row) + "\n" for row in m.tolist())
        # every number but NaN (whose payload the text drops) reads back bit for bit
        keep = ~np.isnan(m)
        assert np.array_equal(back.view(np.uint64)[keep], m.view(np.uint64)[keep])
        assert np.isnan(back[~keep]).all()

    def test_missing_file(self, tmp_path):
        from archlab.errors import IoError

        with pytest.raises(IoError):
            datasets.read_matrix_csv(str(tmp_path / "missing.csv"))

    def test_no_partial_output_on_failure(self, tmp_path):
        # a directory at the target path makes the final rename fail; the
        # destination must not be replaced by a partial file
        target = tmp_path / "out.csv"
        target.mkdir()
        from archlab.errors import IoError

        with pytest.raises(IoError):
            datasets.atomic_write_text(str(target), "boom")
        assert target.is_dir()

    @pytest.mark.parametrize("case", ["target is a directory", "unformattable row"])
    def test_failed_write_leaves_no_temp_file(self, tmp_path, case):
        # the rename fails with an OSError; the row formatting fails with a
        # TypeError in the second chunk, after the first is in the temp file
        target = tmp_path / "out.csv"
        if case == "target is a directory":
            target.mkdir()
            m, expected = np.ones((1, 1)), IoError
        else:
            m = np.ones((datasets.CSV_CHUNK_ROWS + 1, 1), dtype=object)
            m[-1, 0], expected = "x", TypeError
        with pytest.raises(expected):
            datasets.write_matrix_csv(m, ["a"], str(target))
        assert target.is_dir() == (case == "target is a directory")
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["out.csv"] if target.exists() else [])

    def test_non_finite_json_is_not_written(self, tmp_path):
        # NaN and Infinity are not JSON, though Python's encoder writes them
        path = tmp_path / "out.json"
        with pytest.raises(NumericalError, match=re.escape(str(path))):
            datasets.write_json({"x": float("nan")}, str(path))
        assert not path.exists()


def deep_model_payload(edit):
    """The file form of a small untrained deep model (input_dim 4, k 3, one
    hidden layer of 8 each side, no side head), changed in place by ``edit``."""
    arch = deep_aa.DeepAaArch(input_dim=4, k=3, encoder_hidden=(8,), decoder_hidden=(8,))
    payload = {"schema_version": datasets.SCHEMA_VERSION, "kind": "deep_aa",
               **deep_aa.DeepAaModel(arch).to_dict()}
    edit(payload)
    return payload


def _offset(name):
    """Where the parameters of the network ``name`` of deep_model_payload's
    model start in its flat ``parameters`` list."""
    arch = deep_aa.DeepAaArch(input_dim=4, k=3, encoder_hidden=(8,), decoder_hidden=(8,))
    model = deep_aa.DeepAaModel(arch)
    before = model.parameters().index(getattr(model, name).weights[0])
    return sum(p.value.size for p in model.parameters()[:before])


# edits after which a deep model file no longer fits the networks its arch
# builds, or holds a number no trained model has; each has to fail loading
# rather than leave random, broadcast or non-finite weights. The tests take
# an edit by name and apply it in their body.
MISFIT_DEEP_MODELS = {
    # the decoder's output bias, the last 4 numbers, is missing
    "truncated-decoder": lambda d: d.update(parameters=d["parameters"][:-4]),
    # one row of the decoder's (2, 8) first weight, which a reshape would
    # broadcast: 8 numbers short
    "broadcastable-weight": lambda d: d["parameters"].__delitem__(
        slice(_offset("decoder"), _offset("decoder") + 8)),
    # a fifth output: 8 more weights and 1 more bias
    "decoder-too-wide": lambda d: d["parameters"].extend([0.0] * 9),
    # the numbers of a (2, 4, 1) side head the arch does not have
    "side-head-not-in-arch": lambda d: d["parameters"].extend(
        [0.0] * sum(p.value.size for p in nn.Mlp([2, 4, 1]).parameters())),
    "nan-decoder-weight": lambda d: d["parameters"].__setitem__(
        _offset("decoder"), float("nan")),
    "inf-median-logvar": lambda d: d.update(median_logvar=[float("inf"), 0.0]),
    "zero-noise-var": lambda d: d.update(noise_var=[0, 0, 0, 0]),
    "nan-at-weight": lambda d: d.update(at_weight=float("nan")),
    # written by json as "at_weight":Infinity
    "inf-at-weight": lambda d: d.update(at_weight=math.inf),
}


def model_text(**fields):
    """A model file of the current schema version holding ``fields``."""
    return json.dumps({"schema_version": datasets.SCHEMA_VERSION, **fields})


LINEAR_FIELDS = {"a": [[1]], "b": [[1]], "z": [[1]], "rss": 0, "iterations": 1,
                 "converged": True, "rss_history": [0]}

# model files that read_model must reject with a ParseError naming the file,
# apart from MISFIT_DEEP_MODELS
MALFORMED_MODELS = {
    "not-an-object": "[1]",
    "missing-key": model_text(kind="linear_aa"),
    "bad-value": model_text(kind="linear_aa", **{**LINEAR_FIELDS, "rss": "low"}),
    "bad-layer-state": model_text(kind="deep_aa", arch={"input_dim": 2, "k": 2},
                                  parameters=5),
    # Z's one row does not fit A's two columns
    "misfit-linear-shapes": model_text(kind="linear_aa", **{
        **LINEAR_FIELDS, "a": [[1, 0], [0, 1]], "b": [[1, 0], [0, 1]], "z": [[1, 2]]}),
    "nan-linear-z": model_text(kind="linear_aa", **{**LINEAR_FIELDS, "z": [[math.nan]]}),
    "inf-linear-b": model_text(kind="linear_aa", **{**LINEAR_FIELDS, "b": [[math.inf]]}),
    "linear-without-rss-history": model_text(kind="linear_aa", **{
        name: value for name, value in LINEAR_FIELDS.items() if name != "rss_history"}),
}
DEEP_MODEL_EDITS = {**MISFIT_DEEP_MODELS, "arch-without-k": lambda d: d["arch"].pop("k")}


def assert_rewrite_gives_same_bytes(model, path):
    again = f"{path}.again"
    datasets.write_model(model, again)
    with open(path, "rb") as first, open(again, "rb") as second:
        assert first.read() == second.read()


DEEP_MODEL_KEYS = {"schema_version", "kind", "arch", "parameters", "median_logvar",
                   "noise_var", "at_weight", "side_weight"}


class TestModelRoundTrip:
    def test_linear_model(self, tmp_path):
        x = numerics.rng_create(0).standard_normal((30, 3))
        model = linear_aa.fit_linear_aa(x, linear_aa.LinearAaConfig(k=2))
        path = str(tmp_path / "model.json")
        datasets.write_model(model, path)
        back = datasets.read_model(path)
        np.testing.assert_array_equal(back.a, model.a)
        np.testing.assert_array_equal(back.b, model.b)
        np.testing.assert_array_equal(back.z, model.z)
        assert back.rss == model.rss
        assert back.converged == model.converged
        assert back.rss_history == model.rss_history
        assert_rewrite_gives_same_bytes(back, path)

    def test_deep_model(self, tmp_path):
        # a loaded model encodes, decodes and generates as the trained one,
        # bit for bit, side head and fitted noise included
        spec = SyntheticSpec(n=60, p=4, k=3, warp="exp", warp_dim=0)
        ds = datasets.make_side_info(datasets.make_synthetic(spec))
        arch = deep_aa.DeepAaArch(input_dim=4, k=3, encoder_hidden=(8,),
                                  decoder_hidden=(8,), side_hidden=(4,))
        model = deep_aa.DeepAaModel(arch, seed=0)
        deep_aa.train(model, ds, deep_aa.DeepAaHyper(epochs=1, batch=20, at_weight=3.0))
        path = str(tmp_path / "deep.json")
        datasets.write_model(model, path)
        back = datasets.read_model(path)
        probe = numerics.rng_create(1).standard_normal((5, 4))
        for got, want in zip(back.encode(probe), model.encode(probe)):
            np.testing.assert_array_equal(got, want)
        latent = numerics.rng_create(2).standard_normal((3, 2))
        for got, want in zip(back.decode(latent), model.decode(latent)):
            np.testing.assert_array_equal(got, want)
        mix = [0.2, 0.3, 0.5]
        for got, want in zip(deep_aa.generate(back, mix, numerics.rng_create(3)),
                             deep_aa.generate(model, mix, numerics.rng_create(3))):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(back.noise_var, model.noise_var)
        assert (back.at_weight, back.side_weight) == (3.0, 1.0)
        assert back.history == []  # history.csv holds it
        assert_rewrite_gives_same_bytes(back, path)

    def test_deep_model_file_is_arch_plus_flat_parameters(self, tmp_path):
        arch = deep_aa.DeepAaArch(input_dim=4, k=3, encoder_hidden=(8,),
                                  decoder_hidden=(8,), side_hidden=(4,))
        model = deep_aa.DeepAaModel(arch, seed=5)
        path = str(tmp_path / "deep.json")
        datasets.write_model(model, path)
        with open(path) as fh:
            payload = json.load(fh)
        assert set(payload) == DEEP_MODEL_KEYS
        assert payload["schema_version"] == datasets.SCHEMA_VERSION == 2
        assert deep_aa.DeepAaArch(**payload["arch"]) == arch
        want = np.concatenate([p.value.ravel() for p in model.parameters()])
        np.testing.assert_array_equal(payload["parameters"], want)

    def test_schema_version_mismatch(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"schema_version": 99, "kind": "linear_aa"}')
        with pytest.raises(SchemaVersionError):
            datasets.read_model(str(path))

    def test_schema_one_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(deep_model_payload(
            lambda d: d.update(schema_version=1))))
        with pytest.raises(SchemaVersionError, match="schema version 1 unsupported"):
            datasets.read_model(str(path))

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(model_text(kind="mystery"))
        with pytest.raises(ParseError):
            datasets.read_model(str(path))

    @pytest.mark.parametrize("case", [*MALFORMED_MODELS, *DEEP_MODEL_EDITS])
    def test_malformed_model_names_file(self, tmp_path, case):
        path = tmp_path / "model.json"
        if case in MALFORMED_MODELS:
            path.write_text(MALFORMED_MODELS[case])
        else:
            path.write_text(json.dumps(deep_model_payload(DEEP_MODEL_EDITS[case])))
        with pytest.raises(ParseError, match=re.escape(str(path))):
            datasets.read_model(str(path))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            datasets.read_model(str(path))
