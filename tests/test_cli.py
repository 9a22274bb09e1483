"""End-to-end tests for the command line front end.

Each subcommand is driven through cli.main() with a real argv list, so
flag parsing, config merging, exit codes, and file outputs are all
exercised exactly as a shell user would hit them.
"""

import csv
import dataclasses
import functools
import hashlib
import itertools
import json
import os
import re
import socket
import threading

import numpy as np
import pytest

from deskbench import artifacts, cli, dataio, distbench, gbt, linmodels, mlp
from deskbench.errors import ConfigError

from helpers import load_parts


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture()
def dense_csv(tmp_path):
    ds = dataio.generate_synthetic(240, 10, 4.0, seed=7)
    path = tmp_path / "d.csv"
    dataio.save_dense(ds, path)
    return path


@pytest.fixture()
def regression_csv(tmp_path):
    rng = np.random.default_rng(5)
    features = rng.standard_normal((160, 6))
    w = rng.standard_normal(6)
    labels = 3.0 + features @ w + 0.1 * rng.standard_normal(160)
    path = tmp_path / "reg.csv"
    dataio.save_dense(dataio.DenseDataset(labels, features), path)
    return path


@pytest.fixture()
def gen_csv(tmp_path):
    """A small `deskbench gen` dataset: 0/1 labels."""
    path = tmp_path / "gen.csv"
    assert run_cli("gen", "--rows", 60, "--features", 4, "--seed", 1,
                   "--out", path, "--outdir", tmp_path / "gen") == 0
    return path


@pytest.fixture()
def built_configs(monkeypatch):
    """Record the fields of the configs each make_trainer call receives."""
    calls = []

    def recording(make_trainer):
        def wrapped(*args):
            fields = {}
            for arg in args:
                if dataclasses.is_dataclass(arg):
                    fields.update(dataclasses.asdict(arg))
            calls.append(fields)
            return make_trainer(*args)
        return wrapped

    for module in (linmodels, mlp, gbt):
        monkeypatch.setattr(module, "make_trainer", recording(module.make_trainer))
    return calls


class TestGen:
    def test_writes_dataset_and_effective_config(self, tmp_path):
        out = tmp_path / "gen.csv"
        rc = run_cli("gen", "--rows", 50, "--features", 4, "--seed", 3,
                     "--out", out, "--outdir", tmp_path)
        assert rc == 0
        ds = dataio.load_dense(out)
        assert (ds.num_rows, ds.num_features) == (50, 4)
        eff = json.loads((tmp_path / "effective-config.json").read_text())
        assert eff["command"] == "gen"
        assert eff["rows"] == 50

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("gen", "--rows", 30, "--features", 3, "--seed", 9,
                "--out", a, "--outdir", tmp_path)
        run_cli("gen", "--rows", 30, "--features", 3, "--seed", 9,
                "--out", b, "--outdir", tmp_path)
        assert a.read_bytes() == b.read_bytes()


class TestCv:
    def test_report_has_five_fold_entries(self, tmp_path, dense_csv):
        rc = run_cli("cv", "--algo", "logreg", "--k", 5, "--data", dense_csv,
                     "--outdir", tmp_path)
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["folds"]) == 5
        assert report["algo"] == "logistic"
        assert report["average"]["auc_roc"] > 0.9
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0].startswith("run_id,algo,fold")
        assert len(lines) == 1 + 5 + 1  # header, folds, average

    def test_gbt_regression_cv(self, tmp_path, regression_csv):
        rc = run_cli("cv", "--algo", "gbt", "--k", 3, "--num-round", 10,
                     "--max-depth", 3, "--data", regression_csv,
                     "--outdir", tmp_path)
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["folds"]) == 3
        assert report["average"]["rmse"] is not None


    def test_gbt_on_zero_one_labels_is_regression(self, tmp_path, gen_csv):
        rc = run_cli("cv", "--algo", "gbt", "--k", 2, "--num-round", 3, "--max-depth", 2,
                     "--data", gen_csv, "--outdir", tmp_path)
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        for fold in report["folds"] + [report["average"]]:
            assert fold["rmse"] is not None
            assert fold["accuracy"] is None


class TestSplit:
    def test_parts_round_trip(self, tmp_path, dense_csv):
        rc = run_cli("split", "--data", dense_csv, "--parts", 3,
                     "--name", "chunk", "--outdir", tmp_path)
        assert rc == 0
        manifest, parts = load_parts(tmp_path / "chunk.manifest.json")
        assert len(parts) == 3
        sizes = [p.num_rows for p in parts]
        assert sum(sizes) == 240
        assert max(sizes) - min(sizes) <= 1


class TestTrain:
    @pytest.mark.parametrize("algo,kind", [("logreg", "logistic"), ("svm", "svm")])
    def test_linear_artifact(self, tmp_path, dense_csv, algo, kind):
        rc = run_cli("train", "--algo", algo, "--data", dense_csv,
                     "--epochs", 300 if algo == "svm" else 3,
                     "--outdir", tmp_path)
        assert rc == 0
        artifact = artifacts.load_artifact(tmp_path / "model.json")
        assert artifact["kind"] == kind
        model = artifacts.artifact_to_model(artifact)
        assert model.weights.shape == (10,)

    def test_mlp_writes_curve(self, tmp_path, dense_csv):
        rc = run_cli("train", "--algo", "mlp", "--data", dense_csv,
                     "--epochs", 2, "--hidden-size", 8, "--dropout", 0.2,
                     "--outdir", tmp_path)
        assert rc == 0
        assert artifacts.load_artifact(tmp_path / "model.json")["kind"] == "mlp"
        curve = (tmp_path / "learning-curve.csv").read_text().splitlines()
        assert len(curve) == 3  # header + 2 epochs

    def test_gbt_artifact_predicts(self, tmp_path, regression_csv):
        rc = run_cli("train", "--algo", "gbt", "--data", regression_csv,
                     "--num-round", 8, "--max-depth", 3, "--outdir", tmp_path)
        assert rc == 0
        artifact = artifacts.load_artifact(tmp_path / "model.json")
        model = artifacts.artifact_to_model(artifact)
        ds = dataio.load_dense(regression_csv, label_map="raw")
        from deskbench import gbt

        preds = gbt.predict(model, ds.features)
        assert preds.shape == (160,)


class TestLabelMap:
    @pytest.mark.parametrize("command, extra", [
        ("train", ()), ("cv", ()), ("gridsearch", ("--grid", '{"lambda": [0.1]}')),
    ], ids=["train", "cv", "gridsearch"])
    def test_help_names_accepted_values(self, tmp_path, gen_csv, capsys, command, extra):
        assert run_cli(command, "--help") == 0
        help_text = " ".join(capsys.readouterr().out.split())
        values = re.search(r"override label mapping: (\S+)", help_text).group(1).split("|")
        assert values == list(dataio.LABEL_MAPS)
        for value in values:
            # a 0/1 file fails plus_minus_one as data (2), never as usage (1)
            rc = run_cli(command, "--algo", "logreg", "--data", gen_csv, "--label-map", value,
                         "--epochs", 1, *extra, "--outdir", tmp_path / value)
            assert rc == (2 if value == "plus_minus_one" else 0)

    def test_plus_minus_one_csv_trains(self, tmp_path, gen_csv):
        ds = dataio.load_dense(gen_csv)
        path = tmp_path / "pm.csv"
        dataio.save_dense(dataio.DenseDataset(2.0 * ds.labels - 1.0, ds.features), path)
        assert path.read_text().startswith(("-1", "1"))
        assert run_cli("train", "--algo", "logreg", "--data", path,
                       "--label-map", "plus_minus_one", "--outdir", tmp_path) == 0
        assert run_cli("gridsearch", "--algo", "logreg", "--data", path, "--k", 2,
                       "--grid", '{"lambda": [0.1]}', "--label-map", "plus_minus_one",
                       "--outdir", tmp_path) == 0


class TestPlan:
    def test_default_pairings(self, tmp_path):
        rc = run_cli("plan", "--partitions", 5, "--outdir", tmp_path)
        assert rc == 0
        plan = json.loads((tmp_path / "plan.json").read_text())
        pairings = {
            inst["instance"]: (set(inst["algorithms"]), inst["partition"])
            for inst in plan["instances"]
        }
        assert pairings == {
            "A": ({"logistic", "forest"}, 0),
            "B": ({"mlp", "logistic"}, 1),
            "C": ({"gbt", "mlp"}, 2),
            "D": ({"svm", "gbt"}, 3),
            "E": ({"svm", "forest"}, 4),
        }

    def test_wrong_partition_count_is_data_error(self, tmp_path):
        assert run_cli("plan", "--partitions", 4, "--outdir", tmp_path) == 2

    def test_custom_algorithm_ids(self, tmp_path):
        rc = run_cli("plan", "--partitions", 5, "--algos", "a,b,c,d,e",
                     "--outdir", tmp_path)
        assert rc == 0
        plan = json.loads((tmp_path / "plan.json").read_text())
        assert plan["instances"][0]["algorithms"] == ["a", "b"]


class TestGridsearch:
    def test_two_by_two_grid(self, tmp_path, dense_csv):
        grid = json.dumps({"lambda": [0.001, 0.1], "lr": [0.05, 0.2]})
        rc = run_cli("gridsearch", "--algo", "logreg", "--data", dense_csv,
                     "--k", 2, "--grid", grid, "--outdir", tmp_path)
        assert rc == 0
        result = json.loads((tmp_path / "gridsearch.json").read_text())
        assert len(result["points"]) == 4
        assert set(result["best"]) == {"lambda", "lr"}
        lines = (tmp_path / "gridsearch.csv").read_text().splitlines()
        assert len(lines) == 5

    def test_gbt_grid_uses_dashed_keys(self, tmp_path, regression_csv):
        rc = run_cli("gridsearch", "--algo", "gbt", "--data", regression_csv,
                     "--k", 2, "--num-round", 6,
                     "--grid", json.dumps({"max-depth": [2, 3]}),
                     "--outdir", tmp_path)
        assert rc == 0
        result = json.loads((tmp_path / "gridsearch.json").read_text())
        assert len(result["points"]) == 2

    # every hyperparameter flag each family reads, with the field it sets
    FAMILY_FLAGS = [
        ("logreg", "lambda", [1e-3, 1e-2], "lambda_"),
        ("logreg", "lr", [0.05, 0.2], "learning_rate"),
        ("logreg", "epochs", [1, 2], "epochs_or_iters"),
        ("logreg", "batch-size", [16, 32], "batch_size"),
        ("mlp", "lr", [1e-3, 3e-3], "learning_rate"),
        ("mlp", "epochs", [1, 2], "epochs"),
        ("mlp", "batch-size", [8, 16], "batch_size"),
        ("mlp", "hidden-size", [4, 8], "hidden_size"),
        ("mlp", "num-blocks", [1, 2], "num_hidden_blocks"),
        ("mlp", "dropout", [0.1, 0.2], "dropout_p"),
        ("mlp", "weight-decay", [1e-4, 1e-3], "weight_decay"),
        ("gbt", "lambda", [1.0, 1.5], "lambda_"),
        ("gbt", "max-depth", [1, 2], "max_depth"),
        ("gbt", "eta", [0.1, 0.3], "eta"),
        ("gbt", "num-round", [2, 3], "num_round"),
        ("gbt", "min-child-weight", [1.0, 2.0], "min_child_weight"),
        ("gbt", "gamma", [0.0, 0.1], "gamma"),
    ]

    @pytest.mark.parametrize("algo, flag, values, field", FAMILY_FLAGS,
                             ids=[f"{a}-{f}" for a, f, _, _ in FAMILY_FLAGS])
    def test_every_hyperparameter_flag_is_a_grid_key(self, tmp_path, gen_csv, built_configs,
                                                     algo, flag, values, field):
        rc = run_cli("gridsearch", "--algo", algo, "--data", gen_csv, "--k", 2,
                     "--epochs", 1, "--batch-size", 16, "--hidden-size", 4,
                     "--num-round", 2, "--max-depth", 1,
                     "--grid", json.dumps({flag: values}), "--outdir", tmp_path)
        assert rc == 0
        result = json.loads((tmp_path / "gridsearch.json").read_text())
        assert [p["params"] for p in result["points"]] == [{flag: v} for v in values]
        assert [c[field] for c in built_configs] == values
        first, second = built_configs
        assert {k for k in first if first[k] != second[k]} == {field}

    def test_underscored_key_accepted(self, tmp_path, gen_csv, built_configs):
        rc = run_cli("gridsearch", "--algo", "logreg", "--data", gen_csv, "--k", 2,
                     "--grid", json.dumps({"batch_size": [8, 16]}), "--outdir", tmp_path)
        assert rc == 0
        assert [c["batch_size"] for c in built_configs] == [8, 16]
        result = json.loads((tmp_path / "gridsearch.json").read_text())
        assert set(result["best"]) == {"batch_size"}

    FLAG_NAMES = str([opt.name for opt in cli.HYPER_OPTS])

    @pytest.mark.parametrize("grid, needles", [
        ({"lambda_": [0.1]}, ["['lambda_']", FLAG_NAMES]),
        ({"lambda": [0.1], "dropout_p": [0.1], "class_weights": [[1, 2]]},
         ["['class_weights', 'dropout_p']", FLAG_NAMES]),
        ({"lambda": 0.1}, ["parameter lists"]),
        ({"lr": [0.1, "fast"]}, ["'fast'"]),
        ([0.1], ["parameter lists"]),
        ({"lambda": []}, ["at least one value"]),
        ({}, ["at least one parameter"]),
    ], ids=["dataclass-field", "several-unknown", "not-a-list", "bad-value", "not-an-object",
            "empty-list", "empty-object"])
    def test_bad_grid_is_usage_error_before_training(self, tmp_path, gen_csv, built_configs,
                                                     capsys, grid, needles):
        rc = run_cli("gridsearch", "--algo", "logreg", "--data", gen_csv, "--k", 2,
                     "--grid", json.dumps(grid), "--outdir", tmp_path)
        assert rc == 1
        assert built_configs == []
        assert not (tmp_path / "gridsearch.json").exists()
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert all(needle in err for needle in needles)

    def test_gbt_on_zero_one_labels_is_regression(self, tmp_path, gen_csv):
        rc = run_cli("gridsearch", "--algo", "gbt", "--data", gen_csv, "--k", 2,
                     "--num-round", 3, "--grid", json.dumps({"max-depth": [1, 2]}),
                     "--outdir", tmp_path)
        assert rc == 0
        result = json.loads((tmp_path / "gridsearch.json").read_text())
        for point in result["points"]:
            assert point["report"]["rmse"] is not None
            assert point["report"]["accuracy"] is None
            assert point["score"] == point["report"]["rmse"]


MOVIE_CSV = """title,rating,director,genre,year,gross,description
Alpha,8.1,Jones,Drama,1994,"$1,200,000",a moving story of loss and hope
Beta,NA,Jones,Drama,1997,"$900,000",a second moving story from the same hands
Gamma,6.0,Smith,War,2001,N/A,tanks roll over muddy fields again
Delta,7.5,Lee,"Drama, War",2004,"$2,100,000",love letters crossing the front lines
Epsilon,NA,Nguyen,Comedy,2010,"$450,000",jokes land fast in this breezy romp
"""

MOVIE_SCHEMA = json.dumps({
    "title": "text", "rating": "number", "director": "text", "genre": "text",
    "year": "number", "gross": "text", "description": "text",
})


class TestPipeline:
    def test_movie_fixture(self, tmp_path):
        raw = tmp_path / "movies.csv"
        raw.write_text(MOVIE_CSV, encoding="utf-8")
        rc = run_cli("pipeline", "--data", raw, "--schema", MOVIE_SCHEMA,
                     "--target-column", "rating",
                     "--context-columns", "director,genre",
                     "--currency-columns", "gross", "--year-column", "year",
                     "--text-columns", "title,genre,description",
                     "--numeric-columns", "gross,year",
                     "--dim", 64, "--min-doc-freq", 1, "--outdir", tmp_path)
        assert rc == 0
        ds = dataio.load_dense(tmp_path / "features.csv", label_map="raw")
        # director mean fills Beta, global mean (8.1+6.0+7.5)/3 fills Epsilon
        assert ds.labels.tolist() == [8.1, 8.1, 6.0, 7.5, 7.2]
        assert ds.features.shape == (5, 66)
        report = json.loads((tmp_path / "pipeline-report.json").read_text())
        assert report["imputed_cells"] == 2
        assert report["feature_dim"] == 66

    # features.csv and pipeline-report.json digests, pinned before the flow moved
    @pytest.mark.parametrize("flags, digests", [
        (("--context-columns", "director,genre", "--text-columns", "title,genre,description"),
         ["2a194b6505b310d0fd3420f185b17def4b878c1e295b0862edf08c0a703a3a2b",
          "0601c017a1a6d0631ed1e52a2b5885d7c91616e10d7eefcc882264587f4cee80"]),
        (("--context-columns", "director,genre", "--text-columns", "title,genre,description",
          "--dedupe-column", "description", "--min-tokens", 7),
         ["fe699ab6de836737d1d9f2916e360a2c97d2b070656adbf869d495a57533fe14",
          "0dfb83d06c7fdd2b49081ea60836bbb6e249baa0bed2b0f6a66d51e7e7f46f16"]),
        ((),  # the default context and text columns
         ["7dc6f835f8de8c1b0e0f01fddb4626610526b36f1a894e2a3135e244d59bf893",
          "7674845e7f011e1e1074f0959fcf4bd86ed600851e7abff8d5750e350433e420"]),
    ])
    def test_movie_fixture_bytes(self, tmp_path, flags, digests):
        raw = tmp_path / "movies.csv"
        raw.write_text(MOVIE_CSV, encoding="utf-8")
        out = tmp_path / "out"
        rc = run_cli("pipeline", "--data", raw, "--schema", MOVIE_SCHEMA,
                     "--target-column", "rating", "--currency-columns", "gross",
                     "--year-column", "year", "--numeric-columns", "gross,year",
                     "--dim", 64, "--min-doc-freq", 1, *flags, "--outdir", out)
        assert rc == 0
        assert [hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("features.csv", "pipeline-report.json")] == digests

    def test_dedupe_stage_drops_rows(self, tmp_path):
        raw = tmp_path / "dups.csv"
        raw.write_text(
            "review,score\ngreat fun movie,5\nGREAT FUN MOVIE,5\nok,3\n",
            encoding="utf-8")
        rc = run_cli("pipeline", "--data", raw,
                     "--schema", json.dumps({"review": "text", "score": "number"}),
                     "--target-column", "score", "--context-columns", "",
                     "--dedupe-column", "review", "--min-tokens", 1,
                     "--text-columns", "review",
                     "--dim", 16, "--min-doc-freq", 1, "--outdir", tmp_path)
        assert rc == 0
        report = json.loads((tmp_path / "pipeline-report.json").read_text())
        assert report["rows_dropped_by_dedupe"] == 1
        assert report["rows_out"] == 2

    def test_non_finite_target_is_data_error(self, tmp_path, capsys):
        raw = tmp_path / "movies.csv"
        raw.write_text("title,rating,director\nA,7.5,X\nB,nan,X\nC,,X\nD,inf,Y\n",
                       encoding="utf-8")
        rc = run_cli("pipeline", "--data", raw,
                     "--schema", json.dumps({"title": "text", "rating": "number",
                                             "director": "text"}),
                     "--target-column", "rating", "--context-columns", "director",
                     "--text-columns", "title", "--dim", 8, "--min-doc-freq", 1,
                     "--outdir", tmp_path)
        assert rc == 2
        assert "line 3, column 'rating': non-finite 'nan'" in capsys.readouterr().err
        assert not (tmp_path / "features.csv").exists()


    def test_text_numeric_column_is_named(self, tmp_path, capsys):
        raw = tmp_path / "movies.csv"
        raw.write_text(MOVIE_CSV, encoding="utf-8")
        rc = run_cli("pipeline", "--data", raw, "--schema", MOVIE_SCHEMA,
                     "--target-column", "rating", "--numeric-columns", "title",
                     "--dim", 8, "--min-doc-freq", 1, "--outdir", tmp_path)
        assert rc == 2
        assert capsys.readouterr().err.strip() == "data error: column 'title' is not numeric"

    def test_stoplist_lines_are_tokenized(self, tmp_path):
        raw = tmp_path / "reviews.csv"
        raw.write_text("review,score\nGreat fun movie,5\ngreat cast,4\ndull plot,2\n"
                       "not great at all,3\n", encoding="utf-8")
        features = {}
        for name, stoplist in [("none", None), ("lower", "great\n"), ("capital", "Great\n")]:
            flags = []
            if stoplist is not None:
                (tmp_path / f"{name}.txt").write_text(stoplist, encoding="utf-8")
                flags = ["--stoplist", tmp_path / f"{name}.txt"]
            assert run_cli("pipeline", "--data", raw,
                           "--schema", json.dumps({"review": "text", "score": "number"}),
                           "--target-column", "score", "--context-columns", "",
                           "--text-columns", "review", "--dim", 16, "--min-doc-freq", 1,
                           *flags, "--outdir", tmp_path / name) == 0
            features[name] = (tmp_path / name / "features.csv").read_bytes()
        assert features["capital"] == features["lower"] != features["none"]


class TestBalance:
    def test_undersample_and_augment(self, tmp_path):
        raw = tmp_path / "reviews.csv"
        with open(raw, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["text", "label"])
            for i in range(40):
                writer.writerow([f"the product arrived quickly item {i}", "pos"])
            for i in range(6):
                writer.writerow([f"sadly a bad buy case {i}", "neg"])
        rc = run_cli("balance", "--data", raw, "--target-size", 12,
                     "--factor", 2, "--rings", 4, "--dim", 64,
                     "--outdir", tmp_path)
        assert rc == 0
        before = (tmp_path / "class-report-before.csv").read_text().splitlines()
        after = (tmp_path / "class-report-after.csv").read_text().splitlines()
        assert "pos,40" in before and "neg,6" in before
        assert "pos,12" in after and "neg,12" in after
        with open(tmp_path / "balanced.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 1 + 24

    @pytest.mark.parametrize("flag, value", [("factor", 0), ("factor", -3), ("rings", 0)])
    def test_bad_parameter_is_usage_error(self, tmp_path, capsys, flag, value):
        raw = tmp_path / "three.csv"
        raw.write_text("text,label\ngood movie,a\nbad food,b\nquiet place,c\n",
                       encoding="utf-8")
        rc = run_cli("balance", "--data", raw, "--target-size", 5, f"--{flag}", value,
                     "--outdir", tmp_path / "out")
        assert rc == 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not (tmp_path / "out" / "balanced.csv").exists()


class TestConfigFile:
    def test_flags_override_and_paths_resolve(self, tmp_path, dense_csv):
        cfgdir = tmp_path / "cfg"
        cfgdir.mkdir()
        data = cfgdir / "local.csv"
        data.write_bytes(dense_csv.read_bytes())
        (cfgdir / "cv.json").write_text(json.dumps({
            "algo": "logreg", "data": "local.csv", "k": 3, "outdir": "out",
        }), encoding="utf-8")
        rc = run_cli("cv", "--config", cfgdir / "cv.json", "--k", 4)
        assert rc == 0
        report = json.loads((cfgdir / "out" / "report.json").read_text())
        assert len(report["folds"]) == 4  # flag beat the file's k=3
        eff = json.loads((cfgdir / "out" / "effective-config.json").read_text())
        assert eff["data"] == str(data.resolve())

    def test_unknown_config_key_is_usage_error(self, tmp_path, dense_csv):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"algo": "logreg", "data": str(dense_csv),
                                   "bogus_knob": 1}), encoding="utf-8")
        assert run_cli("cv", "--config", cfg) == 1

    def test_command_mismatch_is_usage_error(self, tmp_path, dense_csv):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"command": "gen", "rows": 5}), encoding="utf-8")
        assert run_cli("cv", "--config", cfg, "--algo", "logreg",
                       "--data", dense_csv) == 1

    def test_effective_config_replays(self, tmp_path, dense_csv, monkeypatch):
        outdir = tmp_path / "first"
        assert run_cli("cv", "--algo", "logreg", "--k", 3, "--data", dense_csv,
                       "--outdir", outdir) == 0
        first = json.loads((outdir / "report.json").read_text())
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert run_cli("cv", "--config", outdir / "effective-config.json") == 0
        second = json.loads((outdir / "report.json").read_text())
        assert [f["auc_roc"] for f in first["folds"]] == \
               [f["auc_roc"] for f in second["folds"]]


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert run_cli("frobnicate") == 1

    def test_unknown_flag(self, dense_csv):
        assert run_cli("cv", "--algo", "logreg", "--data", dense_csv,
                       "--warp-speed", 9) == 1

    def test_missing_required_flag(self):
        assert run_cli("gen", "--rows", 10) == 1

    def test_no_subcommand(self):
        assert run_cli() == 1

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0

    def test_unknown_algorithm(self, tmp_path, dense_csv):
        assert run_cli("cv", "--algo", "tree", "--data", dense_csv,
                       "--outdir", tmp_path) == 1

    @pytest.mark.parametrize("k", [1, 0])
    @pytest.mark.parametrize("command, extra", [
        ("cv", ()), ("gridsearch", ("--grid", '{"lambda": [0.1]}')),
    ], ids=["cv", "gridsearch"])
    def test_too_few_folds_is_usage_error_before_loading(self, tmp_path, capsys,
                                                         command, extra, k):
        # the data file does not exist, so a check after loading would exit 2
        rc = run_cli(command, "--algo", "logreg", "--data", tmp_path / "missing.csv",
                     "--k", k, *extra, "--outdir", tmp_path)
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--k" in err[0]

    def test_missing_data_file(self, tmp_path):
        assert run_cli("cv", "--algo", "logreg",
                       "--data", tmp_path / "nope.csv",
                       "--outdir", tmp_path) == 2

    def test_corrupt_data_file(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1 not,numeric\n", encoding="utf-8")
        assert run_cli("cv", "--algo", "logreg", "--data", bad,
                       "--outdir", tmp_path) == 2

    def test_bad_line_in_second_range_exits_as_serial(self, tmp_path, dense_csv, capsys,
                                                      monkeypatch):
        lines = dense_csv.read_bytes().splitlines(keepends=True)
        lines[199] = lines[199].replace(b",", b",x", 1)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"".join(lines))
        monkeypatch.setattr(dataio, "_MIN_RANGE_BYTES", 1)
        outcomes = []
        for cores in (2, 1):  # two ranges, then the serial parse
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
            with open(bad, "rb") as fh:
                cuts = dataio._range_cuts(fh)
            rc = run_cli("cv", "--algo", "logreg", "--data", bad,
                         "--outdir", tmp_path / f"out{cores}")
            outcomes.append((cuts, rc, capsys.readouterr().err))
        (cuts, rc, err), (no_cuts, *serial) = outcomes
        assert len(b"".join(lines[:199])) >= cuts[1] and no_cuts is None
        assert (rc, err) == tuple(serial)
        assert rc == 2 and "line 200, column 2: non-numeric field" in err

    @pytest.mark.parametrize("argv, flag", [
        (("gen", "--rows", "abc", "--features", 3, "--out", "g.csv"), "--rows"),
        (("cv", "--algo", "logreg", "--data", "DATA", "--k", "two"), "--k"),
        (("bench-master", "--worker-ids", "a,b", "--algo", "logistic", "--rounds", 1),
         "--worker-ids"),
        (("pipeline", "--data", "DATA", "--schema", "{bad", "--target-column", "y"),
         "--schema"),
        (("gridsearch", "--algo", "logreg", "--data", "DATA", "--grid", "{bad"), "--grid"),
        (("pipeline", "--data", "DATA", "--schema", "[1,2]", "--target-column", "y"),
         "--schema"),
        (("pipeline", "--data", "DATA", "--schema", '[["a"]]', "--target-column", "y"),
         "--schema"),
        (("pipeline", "--data", "DATA", "--schema", '[["a","text",3]]',
          "--target-column", "y"), "--schema"),
    ])
    def test_malformed_flag_value_is_usage_error(self, tmp_path, dense_csv, capsys, argv, flag):
        argv = [dense_csv if arg == "DATA" else arg for arg in argv]
        assert run_cli(*argv, "--outdir", tmp_path) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and flag in err[0]

    def test_malformed_config_value_is_usage_error(self, tmp_path, dense_csv, capsys):
        cfg = tmp_path / "cv.json"
        cfg.write_text(json.dumps({"algo": "logreg", "data": str(dense_csv), "k": "x"}),
                       encoding="utf-8")
        assert run_cli("cv", "--config", cfg, "--outdir", tmp_path) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--k" in err[0] and "'x'" in err[0]

    def test_worker_ids_recorded_as_given(self, tmp_path):
        assert run_cli("bench-master", "--worker-ids", "a,b", "--algo", "logistic",
                       "--rounds", 1, "--outdir", tmp_path) == 1
        eff = json.loads((tmp_path / "effective-config.json").read_text())
        assert eff["worker_ids"] == ["a", "b"]

    def test_zero_workers_is_usage_error(self, tmp_path, capsys):
        assert run_cli("bench-master", "--workers", 0, "--algo", "logistic",
                       "--rounds", 1, "--outdir", tmp_path) == 1
        assert "at least one worker required" in capsys.readouterr().err

    @pytest.mark.parametrize("ids", ["", " , "])
    def test_empty_worker_ids_is_usage_error(self, tmp_path, capsys, ids):
        # the flag was given, so the complaint is the empty list, not a missing flag
        assert run_cli("bench-master", "--worker-ids", ids, "--algo", "logistic",
                       "--rounds", 1, "--outdir", tmp_path) == 1
        assert "at least one worker required" in capsys.readouterr().err

    def test_unreachable_master(self, tmp_path, dense_csv):
        # grab a port nothing listens on
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        rc = run_cli("bench-worker", "--connect", f"127.0.0.1:{port}",
                     "--part", dense_csv, "--worker-id", 1,
                     "--reconnect-attempts", 1, "--outdir", tmp_path)
        assert rc == 3

    @pytest.mark.parametrize("endpoint", ["7077", "h:x", ":7077", "127.0.0.1:70000"])
    def test_bad_listen_endpoint(self, tmp_path, capsys, endpoint):
        assert run_cli("bench-master", "--listen", endpoint, "--workers", 1,
                       "--algo", "logistic", "--rounds", 1, "--outdir", tmp_path) == 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize("endpoint", ["7077", "h:x", ":7077", "127.0.0.1:70000"])
    def test_bad_connect_endpoint(self, tmp_path, dense_csv, capsys, endpoint):
        assert run_cli("bench-worker", "--connect", endpoint, "--part", dense_csv,
                       "--worker-id", 1, "--outdir", tmp_path) == 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize("change, which", [
        *itertools.product(["extra-key", "missing-key", "string-wall-clock", "null-wall-clock",
                            "string-auc"], ["local", "dist"]),
        # only a BenchRecord has round times
        *[(change, "dist") for change in ["scalar-rounds", "string-round", "bool-round",
                                          "negative-round", "inf-round", "null-round"]],
    ])
    def test_report_rejects_bad_record(self, tmp_path, capsys, which, change):
        records = {
            "local": dataclasses.asdict(distbench.LocalBenchResult("logistic", "m", 2, 1.0)),
            "dist": dataclasses.asdict(distbench.BenchRecord("logistic", "m", 1)),
        }
        key, value = {
            "extra-key": ("extra", 1), "missing-key": ("algo", None),
            "string-wall-clock": ("wall_clock_s", "1.0"), "null-wall-clock": ("wall_clock_s", None),
            "string-auc": ("auc_roc" if which == "local" else "holdout_auc", "0.9"),
            "scalar-rounds": ("round_wall_clock_s", 0.5),
            "string-round": ("round_wall_clock_s", [0.5, "0.5"]),
            "bool-round": ("round_wall_clock_s", [True]),
            "negative-round": ("round_wall_clock_s", [0.5, -0.1]),
            "inf-round": ("round_wall_clock_s", [float("inf")]),
            "null-round": ("round_wall_clock_s", [None]),
        }[change]
        if change == "missing-key":
            del records[which][key]
        else:
            records[which][key] = value
        paths = {}
        for name, record in records.items():
            paths[name] = tmp_path / f"{name}-bench.json"
            paths[name].write_text(json.dumps(record), encoding="utf-8")
        rc = run_cli("report", "--local", paths["local"], "--dist", paths["dist"],
                     "--outdir", tmp_path / "rep")
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert str(paths[which]) in err and key in err

    def test_interrupt_flushes_marker(self, tmp_path, monkeypatch):
        def boom(params, outdir):
            raise KeyboardInterrupt

        help_text, opts, _handler = cli.COMMANDS["plan"]
        monkeypatch.setitem(cli.COMMANDS, "plan", (help_text, opts, boom))
        rc = run_cli("plan", "--partitions", 5, "--outdir", tmp_path)
        assert rc == 3
        assert (tmp_path / "interrupted.json").exists()
        assert (tmp_path / "effective-config.json").exists()


def _free_port():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


class TestDistributedFlow:
    def test_master_three_workers_comparison_csv(self, tmp_path, dense_csv):
        pool = dataio.generate_synthetic(1000, 12, 4.0, seed=2)
        train, hold = pool.take(range(700)), pool.take(range(700, 1000))
        train_path, hold_path = tmp_path / "train.csv", tmp_path / "hold.csv"
        dataio.save_dense(train, train_path)
        dataio.save_dense(hold, hold_path)
        run_cli("split", "--data", train_path, "--parts", 3, "--name", "w",
                "--outdir", tmp_path)
        assert run_cli("bench-local", "--algo", "logistic", "--data", train_path,
                       "--rounds", 4, "--holdout", hold_path,
                       "--manifest", "pool", "--outdir", tmp_path / "local") == 0

        port = _free_port()
        results = {}

        def master():
            results["master"] = run_cli(
                "bench-master", "--listen", f"127.0.0.1:{port}",
                "--workers", 3, "--algo", "logistic", "--rounds", 4,
                "--holdout", hold_path, "--manifest", "pool",
                "--round-timeout", 20, "--outdir", tmp_path / "dist")

        def worker(wid):
            results[wid] = run_cli(
                "bench-worker", "--connect", f"127.0.0.1:{port}",
                "--part", tmp_path / f"w.part{wid - 1}.csv",
                "--worker-id", wid, "--outdir", tmp_path / f"worker{wid}")

        threads = [threading.Thread(target=master)]
        threads += [threading.Thread(target=worker, args=(wid,)) for wid in (1, 2, 3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert results == {"master": 0, 1: 0, 2: 0, 3: 0}

        assert run_cli("report", "--local", tmp_path / "local" / "local-bench.json",
                       "--dist", tmp_path / "dist" / "dist-bench.json",
                       "--outdir", tmp_path / "rep") == 0
        lines = (tmp_path / "rep" / "comparison.csv").read_text().splitlines()
        assert lines[0] == "algorithm,mode,wall_clock_s,auc_roc,speedup"
        assert lines[1].startswith("logistic,local,")
        assert lines[2].startswith("logistic,distributed,")
        assert lines[3].startswith("#")
        dist = json.loads((tmp_path / "dist" / "dist-bench.json").read_text())
        assert dist["holdout_auc"] > 0.9


class TestMergeParams:
    def test_defaults_fill_missing(self):
        opts = (cli.Opt("alpha", int, default=3), cli.Opt("beta", float))
        ns = type("NS", (), {"alpha": None, "beta": "2.5"})()
        params = cli.merge_params(opts, ns, {}, None)
        assert params == {"alpha": 3, "beta": 2.5}

    def test_required_missing_raises(self):
        opts = (cli.Opt("alpha", int, required=True),)
        ns = type("NS", (), {"alpha": None})()
        with pytest.raises(ConfigError):
            cli.merge_params(opts, ns, {}, None)

    def test_config_value_converted(self, tmp_path):
        opts = (cli.Opt("alpha", int),)
        ns = type("NS", (), {"alpha": None})()
        params = cli.merge_params(opts, ns, {"alpha": "7"}, tmp_path)
        assert params["alpha"] == 7

    def test_dashed_and_underscored_keys_accepted(self, tmp_path):
        opts = (cli.Opt("doc-freq", int),)
        ns = type("NS", (), {"doc_freq": None})()
        assert cli.merge_params(opts, ns, {"doc-freq": 2}, tmp_path) == {"doc_freq": 2}
        assert cli.merge_params(opts, ns, {"doc_freq": 4}, tmp_path) == {"doc_freq": 4}


SGD = functools.partial(linmodels.SgdConfig, lambda_=1e-4, epochs_or_iters=1)


class TestNonFiniteHyperparameters:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("make, field", [
        (gbt.GbtConfig, "lambda_"), (gbt.GbtConfig, "gamma"),
        (gbt.GbtConfig, "min_child_weight"),
        (SGD, "lambda_"), (SGD, "learning_rate"), (SGD, "class_weights"),
        (mlp.MlpTrainConfig, "learning_rate"), (mlp.MlpTrainConfig, "weight_decay"),
        (mlp.MlpTrainConfig, "adam_eps"), (mlp.MlpTrainConfig, "bn_eps"),
        (mlp.MlpTrainConfig, "class_weights"),
    ])
    def test_config_names_the_field(self, make, field, value):
        with pytest.raises(ConfigError, match=field.rstrip("_")):
            make(**{field: (1.0, value) if field == "class_weights" else value})

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_gbt_train_exits_1_without_artifact(self, tmp_path, capsys, regression_csv, value):
        rc = run_cli("train", "--algo", "gbt", "--data", regression_csv, "--lambda", value,
                     "--num-round", 2, "--outdir", tmp_path)
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"usage error: bad value {value!r} for --lambda: "
                              "Out of range float values are not JSON compliant")
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("argv, flag", [
        (("gen", "--rows", 10, "--features", 2, "--out", "x.csv", "--separation", "nan"),
         "--separation"),
        (("bench-master", "--algo", "logistic", "--rounds", 1, "--workers", 1,
          "--round-timeout", "inf"), "--round-timeout"),
        (("bench-master", "--algo", "logistic", "--rounds", 1, "--workers", 1,
          "--round-timeout", "nan"), "--round-timeout"),
        (("train", "--algo", "gbt", "--data", "d.csv", "--lambda=-inf"), "--lambda"),
        (("train", "--algo", "gbt", "--data", "d.csv", "--lambda", "1e999"), "--lambda"),
        (("gridsearch", "--algo", "gbt", "--data", "d.csv", "--grid", '{"eta": [0.1, NaN]}'),
         "--grid"),
        (("train", "--algo", "gbt", "--data", "d.csv", "--config", "eta.json"), "--eta"),
        (("train", "--algo", "gbt", "--data", "d.csv", "--config", "map.json"), "--label-map"),
    ], ids=["gen-separation", "master-timeout-inf", "master-timeout-nan", "lambda-inf",
            "lambda-overflow", "grid-json", "config-file", "config-file-text-flag"])
    def test_non_finite_flag_is_a_usage_error(self, tmp_path, capsys, argv, flag):
        (tmp_path / "eta.json").write_text('{"eta": Infinity}', encoding="utf-8")
        (tmp_path / "map.json").write_text('{"label-map": NaN}', encoding="utf-8")
        rc = run_cli(*[tmp_path / a if a.endswith((".csv", ".json")) else a
                       for a in map(str, argv)], "--outdir", tmp_path / "out")
        assert rc == 1
        assert f"for {flag}: Out of range float" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_json_refuses_nan_before_writing(self, tmp_path):
        with pytest.raises(ValueError):
            cli.write_json(tmp_path / "r.json", {"auc": float("nan")})
        assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("wid", [-1, 2**32, 5000000000])
def test_worker_id_outside_hello_range_is_a_usage_error(tmp_path, capsys, wid):
    rc = run_cli("bench-worker", "--part", tmp_path / "missing.csv", "--worker-id", wid,
                 "--connect", "127.0.0.1:9", "--outdir", tmp_path)
    assert rc == 1
    assert "--worker-id" in capsys.readouterr().err
