import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archlab import datasets, deep_aa, linear_aa, nn, numerics
from archlab.datasets import Dataset, SyntheticSpec
from archlab.errors import (
    MissingGroundTruth,
    ParameterError,
    ParseError,
    SchemaVersionError,
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
    ], ids=["negative-sigma2", "alpha-length", "alpha-zero", "alpha-not-numbers", "p-zero"])
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
        again = SyntheticSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_dict_round_trip_with_alpha(self):
        spec = SyntheticSpec(n=5, p=4, k=3, alpha=np.array([1.0, 2.0, 3.0]))
        again = SyntheticSpec.from_dict(spec.to_dict())
        assert again == spec
        assert hash(again) == hash(spec)

    def test_from_dict_rejects_unknown_warp(self):
        with pytest.raises(ParameterError):
            SyntheticSpec.from_dict({"n": 1, "p": 2, "k": 2, "warp": "squiggle"})
        with pytest.raises(ParameterError):
            SyntheticSpec.from_dict({"n": 1, "p": 2, "k": 2,
                                     "warp": {"kind": "exp"}})


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


def deep_model_payload(edit):
    """The file form of a small untrained deep model (input_dim 4, k 3, one
    hidden layer of 8 each side), changed in place by ``edit``."""
    arch = deep_aa.DeepAaArch(input_dim=4, k=3, encoder_hidden=(8,), decoder_hidden=(8,))
    payload = {"schema_version": 1, "kind": "deep_aa", **deep_aa.DeepAaModel(arch).to_dict()}
    edit(payload)
    return payload


# edits after which a deep model file no longer fits the networks its arch
# builds; each has to fail loading rather than leave random or broadcast weights
MISFIT_DEEP_MODELS = {
    "truncated-decoder": lambda d: d["decoder"]["weights"].pop(),
    "broadcastable-weight": lambda d: d["decoder"]["weights"][0].pop(),  # (2, 8) -> (1, 8)
    "decoder-too-wide": lambda d: d.update(decoder=nn.Mlp([2, 8, 5]).state()),
    "side-head-not-in-arch": lambda d: d.update(side_head=nn.Mlp([2, 4, 1]).state()),
}


def assert_rewrite_gives_same_bytes(model, path):
    again = f"{path}.again"
    datasets.write_model(model, again)
    with open(path, "rb") as first, open(again, "rb") as second:
        assert first.read() == second.read()


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
        assert_rewrite_gives_same_bytes(back, path)

    def test_deep_model(self, tmp_path):
        ds = datasets.make_synthetic(SyntheticSpec(n=60, p=4, k=3))
        arch = deep_aa.DeepAaArch(input_dim=4, k=3, encoder_hidden=(8,),
                                  decoder_hidden=(8,))
        model = deep_aa.DeepAaModel(arch, seed=0)
        deep_aa.train(model, ds, deep_aa.DeepAaHyper(epochs=1, batch=20))
        path = str(tmp_path / "deep.json")
        datasets.write_model(model, path)
        back = datasets.read_model(path)
        probe = numerics.rng_create(1).standard_normal((5, 4))
        np.testing.assert_array_equal(back.encode(probe)[3], model.encode(probe)[3])
        np.testing.assert_array_equal(back.decode(np.zeros((1, 2)))[0],
                                      model.decode(np.zeros((1, 2)))[0])
        assert back.trained
        assert_rewrite_gives_same_bytes(back, path)

    def test_schema_version_mismatch(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"schema_version": 99, "kind": "linear_aa"}')
        with pytest.raises(SchemaVersionError):
            datasets.read_model(str(path))

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"schema_version": 1, "kind": "mystery"}')
        with pytest.raises(ParseError):
            datasets.read_model(str(path))

    @pytest.mark.parametrize("text", [
        "[1]",
        '{"schema_version": 1, "kind": "linear_aa"}',
        '{"schema_version": 1, "kind": "linear_aa", "a": [[1]], "b": [[1]],'
        ' "z": [[1]], "rss": "low", "iterations": 1, "converged": true}',
        '{"schema_version": 1, "kind": "deep_aa", "arch": {"input_dim": 2, "k": 2},'
        ' "trunk": 5}',
        # Z's one row does not fit A's two columns
        '{"schema_version": 1, "kind": "linear_aa", "a": [[1, 0], [0, 1]],'
        ' "b": [[1, 0], [0, 1]], "z": [[1, 2]], "rss": 0, "iterations": 1,'
        ' "converged": true}',
        json.dumps(deep_model_payload(lambda d: d["arch"].pop("k"))),
        *(json.dumps(deep_model_payload(edit)) for edit in MISFIT_DEEP_MODELS.values()),
    ], ids=["not-an-object", "missing-key", "bad-value", "bad-layer-state",
            "misfit-linear-shapes", "arch-without-k", *MISFIT_DEEP_MODELS])
    def test_malformed_model_names_file(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(str(path))):
            datasets.read_model(str(path))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            datasets.read_model(str(path))
