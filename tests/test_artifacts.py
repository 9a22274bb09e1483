"""Round-trip and validation tests for model artifact serialization."""

import base64
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskbench import artifacts, gbt, mlp
from deskbench.errors import DataFormatError
from deskbench.linmodels import LinearModel, SgdConfig
from deskbench.mlp import MlpArchitecture

from oracles import model_artifact_oracle


def gbt_config_from(artifact: dict) -> gbt.GbtConfig:
    """Recover the stored GbtConfig, if the artifact carries one."""
    cfg = artifact.get("config")
    if not cfg:
        raise DataFormatError("artifact has no stored config")
    return gbt.GbtConfig(**cfg)


class TestF64Codec:
    def test_one_point_zero_reference_bytes(self):
        # 1.0 little-endian f64 = 00 00 00 00 00 00 f0 3f
        assert artifacts.f64_to_b64([1.0]) == "AAAAAAAA8D8="

    def test_empty(self):
        assert artifacts.f64_to_b64([]) == ""
        assert artifacts.b64_to_f64("", (0,)).size == 0

    def test_round_trip_matrix(self):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(3, 5))
        back = artifacts.b64_to_f64(artifacts.f64_to_b64(mat), (3, 5))
        assert np.array_equal(back, mat)

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              width=64), max_size=40))
    def test_round_trip_bit_exact(self, values):
        back = artifacts.b64_to_f64(artifacts.f64_to_b64(values), (len(values),))
        assert np.array_equal(back, np.asarray(values, dtype=np.float64))

    def test_bad_base64_rejected(self):
        with pytest.raises(DataFormatError):
            artifacts.b64_to_f64("not*base64!", (1,))

    def test_partial_float_rejected(self):
        with pytest.raises(DataFormatError):
            artifacts.b64_to_f64("AAAA", (1,))  # 3 bytes

    def test_shape_mismatch_rejected(self):
        payload = artifacts.f64_to_b64([1.0, 2.0])
        with pytest.raises(DataFormatError):
            artifacts.b64_to_f64(payload, (3,))


class TestLinearArtifact:
    def model(self, kind="svm"):
        rng = np.random.default_rng(4)
        return LinearModel(rng.normal(size=7), -0.25, kind)

    def test_fields(self):
        cfg = SgdConfig(lambda_=0.5, epochs_or_iters=10, seed=9)
        art = artifacts.model_artifact(self.model(), config=cfg)
        assert art["kind"] == "svm"
        assert art["num_features"] == 7
        assert art["bias"] == -0.25
        assert art["seed"] == 9
        assert art["config"] == dataclasses.asdict(cfg)

    def test_round_trip_bit_exact(self):
        for kind in ("svm", "logistic"):
            model = self.model(kind)
            back = artifacts.artifact_to_model(artifacts.model_artifact(model))
            assert back.kind == kind
            assert back.bias == model.bias
            assert np.array_equal(back.weights, model.weights)

    def test_json_file_round_trip(self, tmp_path):
        model = self.model("logistic")
        path = tmp_path / "model.json"
        artifacts.save_artifact(path, artifacts.model_artifact(model))
        loaded = artifacts.load_artifact(path)
        back = artifacts.artifact_to_model(loaded)
        assert np.array_equal(back.weights, model.weights)
        raw = json.loads(path.read_text())
        assert set(raw) == {"kind", "num_features", "weights_b64", "bias",
                            "config", "seed"}


class TestMlpArtifact:
    def model(self):
        arch = MlpArchitecture(input_size=4, hidden_size=3,
                               num_hidden_blocks=2, output_size=2, dropout_p=0.5)
        model = mlp.init_model(arch, np.random.default_rng(2),
                               bn_eps=1e-4, bn_momentum=0.2)
        rng = np.random.default_rng(3)
        for block in model.blocks:
            block["run_mean"] = rng.normal(size=3)
            block["run_var"] = rng.uniform(0.5, 2.0, size=3)
        return model

    def test_round_trip_all_parameters(self):
        model = self.model()
        back = artifacts.artifact_to_model(artifacts.model_artifact(model))
        assert back.arch == model.arch
        assert back.bn_eps == model.bn_eps
        assert back.bn_momentum == model.bn_momentum
        for mine, theirs in zip(model.blocks, back.blocks):
            for name in ("w", "b", "gamma", "beta", "run_mean", "run_var"):
                assert np.array_equal(mine[name], theirs[name])
        assert np.array_equal(back.out_w, model.out_w)
        assert np.array_equal(back.out_b, model.out_b)

    def test_round_trip_preserves_forward(self):
        model = self.model()
        back = artifacts.artifact_to_model(artifacts.model_artifact(model))
        batch = np.random.default_rng(5).normal(size=(6, 4))
        assert np.array_equal(mlp.forward(model, batch), mlp.forward(back, batch))

    def test_block_count_mismatch_rejected(self):
        art = artifacts.model_artifact(self.model())
        art["layers"]["blocks"] = art["layers"]["blocks"][:1]
        with pytest.raises(DataFormatError):
            artifacts.artifact_to_model(art)

    def test_json_serializable(self, tmp_path):
        art = artifacts.model_artifact(self.model(), config=mlp.MlpTrainConfig(seed=6))
        path = tmp_path / "mlp.json"
        artifacts.save_artifact(path, art)
        assert artifacts.load_artifact(path) == art


class TestGbtArtifact:
    def model(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 3))
        y = X[:, 0] * 2.0 + rng.normal(scale=0.1, size=60)
        cfg = gbt.GbtConfig(max_depth=3, eta=0.3, num_round=5,
                            min_child_weight=2.0, lambda_=1.0, gamma=0.0)
        return gbt.fit(X, y, cfg), cfg, X

    def test_round_trip_predictions_identical(self):
        model, cfg, X = self.model()
        art = artifacts.model_artifact(model, config=cfg)
        back = artifacts.artifact_to_model(art)
        assert back.base_score == model.base_score
        assert back.trees == model.trees
        assert np.array_equal(gbt.predict(back, X), gbt.predict(model, X))

    def test_config_recovered(self):
        model, cfg, _ = self.model()
        art = artifacts.model_artifact(model, config=cfg)
        assert gbt_config_from(art) == cfg
        assert art["seed"] == cfg.seed

    def test_json_file_round_trip(self, tmp_path):
        model, cfg, X = self.model()
        path = tmp_path / "gbt.json"
        artifacts.save_artifact(path, artifacts.model_artifact(model, config=cfg))
        back = artifacts.artifact_to_model(artifacts.load_artifact(path))
        assert np.array_equal(gbt.predict(back, X), gbt.predict(model, X))

    def test_malformed_tree_rejected(self):
        model, _, _ = self.model()
        art = artifacts.model_artifact(model)
        art["trees"] = [{"f": 0, "t": 0.5, "l": {"w": 1.0}}]  # missing "r"
        with pytest.raises(DataFormatError):
            artifacts.artifact_to_model(art)

    def test_feature_out_of_range_rejected(self):
        art = {"kind": "gbt", "num_features": 2, "base_score": 0.0,
               "trees": [{"f": 5, "t": 0.0, "l": {"w": 0.0}, "r": {"w": 0.0}}],
               "config": None, "seed": None}
        with pytest.raises(DataFormatError):
            artifacts.artifact_to_model(art)

    @pytest.mark.parametrize("split, leaf, base_score", [
        ({"f": 1.7}, {}, 0.0),            # a float feature used to become feature 1
        ({"f": True}, {}, 0.0),           # so did a bool
        ({"f": "1"}, {}, 0.0),
        ({"t": float("nan")}, {}, 0.0),
        ({"t": float("-inf")}, {}, 0.0),
        ({"t": "abc"}, {}, 0.0),
        ({}, {"w": float("inf")}, 0.0),   # such a model predicted inf
        ({}, {"w": None}, 0.0),
        ({}, {}, float("nan")),
        ({}, {}, 10**400),                # an integer too large for a float
    ])
    def test_non_finite_or_non_integer_fields_rejected(self, tmp_path, split, leaf, base_score):
        node = {"f": 1, "t": 0.5, "l": {"w": -1.0, **leaf}, "r": {"w": 1.0}, **split}
        art = {"kind": "gbt", "num_features": 2, "base_score": base_score,
               "trees": [node], "config": None, "seed": None}
        path = tmp_path / "gbt.json"
        artifacts.save_artifact(path, art)  # json writes NaN and Infinity literals
        with pytest.raises(DataFormatError):
            artifacts.artifact_to_model(artifacts.load_artifact(path))

    def test_valid_file_bytes_and_model_unchanged(self, tmp_path):
        model, cfg, X = self.model()
        art = artifacts.model_artifact(model, config=cfg)
        path = tmp_path / "gbt.json"
        artifacts.save_artifact(path, art)
        back = artifacts.artifact_to_model(artifacts.load_artifact(path))
        assert repr(back.trees) == repr(model.trees) and back.base_score == model.base_score
        artifacts.save_artifact(tmp_path / "again.json", artifacts.model_artifact(back, config=cfg))
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


FINITE = st.floats(-1e6, 1e6, width=64)


@st.composite
def models_and_configs(draw):
    """A model of each artifact kind with a matching config dataclass or None."""
    kind = draw(st.sampled_from(artifacts.ARTIFACT_KINDS))
    seed = draw(st.just(0) | st.integers(0, 2**32))  # 0 is falsy, and the default
    if kind in ("logistic", "svm"):
        weights = draw(st.lists(FINITE, max_size=6))
        model = LinearModel(np.array(weights), draw(FINITE), kind)
        config = SgdConfig(lambda_=0.5, epochs_or_iters=3, seed=seed)
    elif kind == "mlp":
        arch = MlpArchitecture(input_size=draw(st.integers(1, 4)),
                               hidden_size=draw(st.integers(1, 3)),
                               num_hidden_blocks=draw(st.integers(1, 3)),
                               output_size=draw(st.integers(1, 3)))
        model = mlp.init_model(arch, np.random.default_rng(seed),
                               bn_eps=draw(st.floats(1e-8, 1e-2)),
                               bn_momentum=draw(st.floats(0.01, 1.0)))
        config = mlp.MlpTrainConfig(seed=seed, class_weights=draw(st.sampled_from(
            [None, (1.0, 2.5)])))
    else:
        width = draw(st.integers(1, 3))
        leaf = st.builds(lambda w: {"w": w}, FINITE)
        tree = st.recursive(leaf, lambda kids: st.builds(
            lambda f, t, left, right: {"f": f, "t": t, "l": left, "r": right},
            st.integers(0, width - 1), FINITE, kids, kids), max_leaves=4)
        model = gbt.GbtModel(draw(FINITE), draw(st.lists(tree, max_size=3)), width)
        config = gbt.GbtConfig(seed=seed)
    return model, draw(st.sampled_from([None, config]))


class TestMatchesPerKindOracle:
    """model_artifact against the per-kind builders it replaced."""

    @settings(deadline=None, max_examples=150)
    @given(models_and_configs())
    def test_artifact_identical(self, case):
        model, config = case
        mine = artifacts.model_artifact(model, config)
        theirs = model_artifact_oracle(model, config)
        assert mine == theirs
        assert json.dumps(mine, sort_keys=True) == json.dumps(theirs, sort_keys=True)

    @pytest.mark.parametrize("field", sorted(artifacts.BLOCK_FIELDS))
    def test_block_field_shape_checked(self, field):
        model = TestMlpArtifact().model()
        art = artifacts.model_artifact(model)
        art["layers"]["blocks"][1][field] = artifacts.f64_to_b64(
            model.blocks[1][field].ravel()[:-1])
        with pytest.raises(DataFormatError, match="expected shape"):
            artifacts.artifact_to_model(art)


def edited(art: dict, path: str, value) -> dict:
    """art with the field at the dotted path set to value, or removed if None."""
    *parents, name = path.split(".")
    doc = art
    for key in parents:
        doc = doc[key]
    if value is None:
        del doc[name]
    else:
        doc[name] = value
    return art


class TestDispatch:
    @pytest.mark.parametrize("model, path, value, field", [
        ("linear", "weights_b64", None, "weights_b64"),  # was KeyError
        ("linear", "weights_b64", 7, "weights_b64"),
        ("linear", "num_features", "7", "num_features"),  # was ValueError
        ("linear", "num_features", 7.0, "num_features"),
        ("linear", "bias", "nan", "bias"),  # was ConfigError
        ("linear", "bias", float("nan"), "bias"),
        ("linear", "bias", None, "bias"),
        ("mlp", "arch.bogus", 1, "arch"),  # was TypeError
        ("mlp", "arch.hidden_size", 0, "arch"),
        ("mlp", "arch", None, "arch"),
        ("mlp", "layers.blocks", {}, "blocks"),
        ("mlp", "layers.out_w", None, "out_w"),
        ("mlp", "layers.bn_eps", "x", "bn_eps"),
        ("gbt", "trees", 5, "trees"),  # was TypeError
        ("gbt", "trees", {"w": 0.0}, "trees"),
        ("gbt", "num_features", True, "num_features"),
        ("gbt", "base_score", None, "base_score"),
    ])
    def test_malformed_field_named(self, model, path, value, field):
        trained = {"linear": TestLinearArtifact().model, "mlp": TestMlpArtifact().model,
                   "gbt": lambda: TestGbtArtifact().model()[0]}[model]()
        art = edited(artifacts.model_artifact(trained), path, value)
        with pytest.raises(DataFormatError, match=field):
            artifacts.artifact_to_model(art)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["weights_b64", "out_w", "out_b", *artifacts.BLOCK_FIELDS])
    def test_non_finite_weights_named(self, field, bad):
        linear = field == "weights_b64"
        art = artifacts.model_artifact(
            TestLinearArtifact().model() if linear else TestMlpArtifact().model())
        doc = (art if linear else
               art["layers"]["blocks"][1] if field in artifacts.BLOCK_FIELDS else art["layers"])
        values = np.frombuffer(base64.b64decode(doc[field]), dtype="<f8").copy()
        values[-1] = bad
        doc[field] = artifacts.f64_to_b64(values)
        with pytest.raises(DataFormatError, match=f"'{field}' holds a non-finite"):
            artifacts.artifact_to_model(art)

    def test_model_artifact_dispatch(self):
        linear = LinearModel(np.zeros(2), 0.0, "svm")
        assert artifacts.model_artifact(linear)["kind"] == "svm"
        with pytest.raises(DataFormatError):
            artifacts.model_artifact(object())

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataFormatError):
            artifacts.artifact_to_model({"kind": "forest"})

    def test_load_rejects_non_artifact_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(DataFormatError):
            artifacts.load_artifact(path)
        path.write_text("{not json")
        with pytest.raises(DataFormatError):
            artifacts.load_artifact(path)
        path.write_text('{"kind": "gbt", "base_score": ' + "9" * 5000 + "}")
        with pytest.raises(DataFormatError):  # beyond int's 4300-digit parse limit
            artifacts.load_artifact(path)
        path.write_bytes(b'{"kind": "gbt\xff"}')
        with pytest.raises(DataFormatError):
            artifacts.load_artifact(path)
