"""The four benchmark workloads: input generators, one pass each, checks.

Every workload replays a flow of the ``deskbench`` library and calls it
only through module attributes (``dataio.load_dense``), so the traced
pass can rebind those attributes. Inputs are made from the workload
seed alone and written during set-up; a pass reads them, runs the flow,
and checks its outputs. Why each workload exists is in README.md.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from deskbench import (artifacts, dataio, distbench, evaluation, gbt, linmodels, mlp, prep,
                       textfeat)
from deskbench.distbench import bench, codec, master

# ---------------------------------------------------------------------------
# sizes

FULL = {
    "dense_cv": {"rows": 4000, "features": 200, "folds": 3, "epochs": 5,
                 "mlp_epochs": 6, "hidden": 64},
    "rating_gbt": {"rows": 500, "injected": 12, "dim": 256, "folds": 5,
                   "rounds": 12, "depth": 3},
    "polarity_balance": {"reviews": 16000, "vocab": 50000, "words": 24,
                         "dim": 512, "factor": 3, "rings": 10},
    "cluster_rounds": {"rows": 5000, "features": 200, "rounds": 400},
}

QUICK = {
    "dense_cv": {"rows": 900, "features": 20, "folds": 3, "epochs": 5,
                 "mlp_epochs": 30, "hidden": 32},
    "rating_gbt": {"rows": 120, "injected": 4, "dim": 64, "folds": 5,
                   "rounds": 4, "depth": 2},
    "polarity_balance": {"reviews": 800, "vocab": 3000, "words": 12,
                         "dim": 128, "factor": 3, "rings": 4},
    "cluster_rounds": {"rows": 600, "features": 10, "rounds": 20},
}

SEPARATION = 8.0
MIN_AUC = 0.95
MAX_AUC_GAP = 0.02
# Accept and round window of the loopback cluster. A worker parses its
# part before HELLO (about 0.6 s for a full-size part on a 2-core
# machine), so 20 s keeps a wide margin and still ends a stuck pass fast.
ROUND_TIMEOUT_S = 20.0
WORKER_EXIT_TIMEOUT_S = 30.0


def sizes(workload: str, quick: bool) -> dict:
    return (QUICK if quick else FULL)[workload]


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class PassResult:
    """What one pass of a workload measured and checked."""

    wall_s: float = 0.0
    startup_s: float = 0.0
    ops: int = 0
    op_failures: int = 0
    checks: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)    # name -> (value, unit)
    digests: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)   # name -> list of floats

    @property
    def attempted(self) -> int:
        return self.ops + len(self.checks)

    @property
    def failed(self) -> int:
        return self.op_failures + sum(1 for ok in self.checks.values() if not ok)


# ---------------------------------------------------------------------------
# dense_cv: `deskbench cv` on the dense binary task, then artifact round trips


def setup_dense_cv(workdir: Path, seed: int, size: dict) -> None:
    ds = dataio.generate_synthetic(size["rows"], size["features"], SEPARATION, seed)
    dataio.save_dense(ds, workdir / "dense.csv")


def _dense_models(size: dict, n_train: int, seed: int):
    sgd = linmodels.SgdConfig(lambda_=1e-4, epochs_or_iters=size["epochs"],
                              learning_rate=0.1, seed=seed)
    pegasos = linmodels.SgdConfig(lambda_=1e-3, epochs_or_iters=5 * n_train, seed=seed)
    arch = mlp.MlpArchitecture(input_size=size["features"], hidden_size=size["hidden"],
                               num_hidden_blocks=2, output_size=2, dropout_p=0.1)
    mlp_cfg = mlp.MlpTrainConfig(learning_rate=3e-3, epochs=size["mlp_epochs"],
                                 batch_size=128, seed=seed)
    return (
        ("logistic", linmodels.make_trainer("logistic", sgd), sgd, linmodels.LinearPredictor),
        ("svm", linmodels.make_trainer("svm", pegasos), pegasos, linmodels.LinearPredictor),
        ("mlp", mlp.make_trainer(arch, mlp_cfg), mlp_cfg, mlp.MlpPredictor),
    )


def pass_dense_cv(workdir: Path, seed: int, size: dict, state: dict) -> PassResult:
    res = PassResult()
    t0 = time.perf_counter()
    ds = dataio.load_dense(workdir / "dense.csv")
    res.startup_s = time.perf_counter() - t0
    res.ops += 1
    n_train = ds.num_rows - math.ceil(ds.num_rows / size["folds"])
    for name, trainer, cfg, predictor_cls in _dense_models(size, n_train, seed):
        fitted = []

        def keep(train_ds, trainer=trainer, fitted=fitted):
            predictor = trainer(train_ds)
            fitted.append(predictor)
            return predictor

        _, average = evaluation.kfold_cv(ds, size["folds"], keep, seed)
        res.ops += size["folds"]
        res.values[f"auc_{name}"] = (average.auc_roc, "AUC")
        res.checks[f"auc_{name} >= {MIN_AUC}"] = (average.auc_roc is not None
                                                  and average.auc_roc >= MIN_AUC)
        # the last fold's model is the one saved, as `deskbench train` would
        final = fitted[-1]
        path = workdir / f"model-{name}.json"
        artifacts.save_artifact(path, artifacts.model_artifact(final.model, config=cfg))
        reloaded = predictor_cls(artifacts.artifact_to_model(artifacts.load_artifact(path)))
        res.ops += 1
        res.checks[f"{name} artifact reloads to the same scores"] = np.array_equal(
            final.score(ds.features), reloaded.score(ds.features))
        res.digests[path.name] = sha256_file(path)
    res.wall_s = time.perf_counter() - t0
    return res


# ---------------------------------------------------------------------------
# rating_gbt: `deskbench pipeline` on a movie table, then 5-fold GBT CV

GENRES = ("Drama", "Comedy", "War", "Scifi", "Romance")
DIRECTORS = ("Jones", "Smith", "Lee", "Nguyen", "Garcia", "Okafor")
WORDS = ("love", "battle", "family", "journey", "secret", "laugh", "city",
         "night", "quiet", "storm", "letter", "return", "lost", "found")
RATING_SCHEMA = [("title", "text"), ("rating", "number"), ("director", "text"),
                 ("genre", "text"), ("year", "number"), ("gross", "text"),
                 ("description", "text")]


def setup_rating_gbt(workdir: Path, seed: int, size: dict) -> None:
    """Movies whose rating follows director skill and two description words.

    About 15% of ratings are missing; gross is a currency string; a few
    exact duplicates and too-short descriptions are injected for dedupe.
    """
    rng = np.random.default_rng(seed)
    skill = {d: 4.0 + 5.0 * i / (len(DIRECTORS) - 1) for i, d in enumerate(DIRECTORS)}
    cells = []
    for i in range(size["rows"]):
        director = DIRECTORS[rng.integers(len(DIRECTORS))]
        words = [str(w) for w in rng.choice(WORDS, size=8)]
        rating = skill[director] + 0.8 * words.count("love") - 0.8 * words.count("storm")
        rating = float(np.clip(rating + rng.normal(0.0, 0.5), 1.0, 10.0))
        gross = int(rng.integers(1, 300)) * 100000
        gross_text = f"USD {gross:,}" if rng.random() < 0.2 else f"${gross:,}"
        cells.append([f"movie-{i}", None if rng.random() < 0.15 else round(rating, 2),
                      director, GENRES[rng.integers(len(GENRES))],
                      float(rng.integers(1960, 2023)), gross_text, " ".join(words)])
    for j in range(size["injected"]):
        dup = list(cells[int(rng.integers(len(cells)))])
        dup[0] = f"dup-{j}"
        cells.append(dup)
        short = list(cells[int(rng.integers(len(cells)))])
        short[0], short[6] = f"short-{j}", " ".join(short[6].split()[:2])
        cells.append(short)
    order = rng.permutation(len(cells))
    frame = dataio.TabularFrame(RATING_SCHEMA, [cells[i] for i in order])
    dataio.save_tabular(frame, workdir / "movies.csv")


def _mean_rmse(ds, folds: int, seed: int) -> float:
    """CV error of predicting each training fold's mean target."""
    errors = []
    for fold in evaluation.make_folds(ds, folds, seed):
        mask = np.ones(ds.num_rows, dtype=bool)
        mask[fold] = False
        guess = ds.labels[mask].mean()
        errors.append(float(np.sqrt(np.mean((ds.labels[fold] - guess) ** 2))))
    return float(np.mean(errors))


def pass_rating_gbt(workdir: Path, seed: int, size: dict, state: dict) -> PassResult:
    res = PassResult()
    t0 = time.perf_counter()
    frame = dataio.load_tabular(workdir / "movies.csv", RATING_SCHEMA)
    res.startup_s = time.perf_counter() - t0
    frame = dataio.clean_currency(frame, ["gross"])
    frame = prep.dedupe_spam(frame, "description", 3)
    plan = prep.impute_fit(frame, "rating", ("director", "genre"))
    frame = prep.impute_apply(frame, plan)
    frame = prep.normalize_year(frame, "year")
    texts = textfeat.all_text_column(frame, ("genre", "director", "description"))
    vectors, _ = textfeat.vectorize_corpus(texts, None, size["dim"], 2)
    gross, year = frame.column("gross"), frame.column("year")
    features = np.zeros((frame.num_rows, size["dim"] + 2))
    for i, vec in enumerate(vectors):
        numerics = [("gross", float(gross[i] or 0.0)), ("year", float(year[i] or 0.0))]
        features[i] = textfeat.assemble(vec, numerics).to_dense()
    ds = dataio.DenseDataset(np.array([float(v) for v in frame.column("rating")]), features)
    out = workdir / "features.csv"
    dataio.save_dense(ds, out)
    res.ops += 8  # load, currency, dedupe, impute, year, vectorize, densify, write

    cfg = gbt.GbtConfig(max_depth=size["depth"], eta=0.3, num_round=size["rounds"],
                        min_child_weight=2.0)
    _, average = evaluation.kfold_cv(ds, size["folds"], gbt.make_trainer(cfg), seed)
    res.ops += size["folds"]
    res.wall_s = time.perf_counter() - t0

    baseline = _mean_rmse(ds, size["folds"], seed)
    res.values["cv_rmse"] = (average.rmse, "rating")
    res.values["mean_rmse"] = (baseline, "rating")
    res.checks["cv_rmse below the training-mean error"] = average.rmse < baseline
    res.digests[out.name] = sha256_file(out)
    return res


# ---------------------------------------------------------------------------
# polarity_balance: `deskbench balance` on a skewed five-class review corpus

CLASS_SHARES = (("1", 0.02), ("2", 0.04), ("3", 0.10), ("4", 0.34), ("5", 0.50))
CLASS_WORDS = {
    "1": ("terrible", "bad", "awful"), "2": ("poor", "bad", "weak"),
    "3": ("okay", "fine", "decent"), "4": ("good", "solid", "food"),
    "5": ("excellent", "great", "movie"),
}
TARGET_SHARE = 0.125


def setup_polarity_balance(workdir: Path, seed: int, size: dict) -> None:
    """Reviews of Zipf-drawn pseudo-words, two class words and an id token."""
    rng = np.random.default_rng(seed)
    codes = (rng.integers(0, 26, size=(size["vocab"], 9)) + ord("a")).astype(np.uint8)
    lengths = rng.integers(3, 10, size=size["vocab"])
    vocab = [codes[i, :k].tobytes().decode("ascii") for i, k in enumerate(lengths)]
    weights = 1.0 / np.arange(1, size["vocab"] + 1)
    draws = rng.choice(size["vocab"], size=(size["reviews"], size["words"]),
                       p=weights / weights.sum())
    polar = rng.integers(0, 3, size=(size["reviews"], 2))
    labels = [label for label, share in CLASS_SHARES
              for _ in range(round(share * size["reviews"]))]
    cells = []
    for i, label in enumerate(labels):
        words = CLASS_WORDS[label]
        body = " ".join([vocab[j] for j in draws[i]])
        cells.append([f"{body} {words[polar[i, 0]]} {words[polar[i, 1]]} id{seed}x{i}",
                      label])
    order = rng.permutation(len(cells))
    frame = dataio.TabularFrame([("text", "text"), ("label", "text")],
                                [cells[i] for i in order])
    dataio.save_tabular(frame, workdir / "reviews.csv")


def pass_polarity_balance(workdir: Path, seed: int, size: dict, state: dict) -> PassResult:
    res = PassResult()
    t0 = time.perf_counter()
    frame = dataio.load_tabular(workdir / "reviews.csv", [("text", "text"), ("label", "text")])
    res.startup_s = time.perf_counter() - t0
    texts = ["" if v is None else str(v) for v in frame.column("text")]
    labels = ["" if v is None else str(v) for v in frame.column("label")]
    before = prep.class_report(labels)
    vectors, _ = textfeat.vectorize_corpus(texts, None, size["dim"], 1)
    by_label: dict = {}
    for i, label in enumerate(labels):
        by_label.setdefault(label, []).append(i)

    target = round(TARGET_SHARE * len(texts))
    augmenter = prep.SynonymAugmenter()
    out_rows = []
    expected = {}
    undersampled = set()
    for label, count in before.counts:
        idx = by_label[label]
        if count > target:
            dense = np.stack([vectors[i].to_dense() for i in idx])
            kept = prep.ring_undersample(dense, prep.RingConfig(target, size["rings"], seed))
            out_rows.extend((texts[idx[j]], label) for j in kept)
            expected[label] = target
            undersampled.add(label)
        elif count < target and size["factor"] > 1:
            result = prep.augment([(texts[i], label) for i in idx], augmenter,
                                  size["factor"], seed)
            out_rows.extend(result.items)
            res.ops += count * (size["factor"] - 1)  # one per augment attempt
            res.op_failures += result.failures
            expected[label] = count * size["factor"] - result.failures
        else:
            out_rows.extend((texts[i], label) for i in idx)
            expected[label] = count
        res.ops += 1
    out = workdir / "balanced.csv"
    dataio.save_tabular(dataio.TabularFrame([("text", "text"), ("label", "text")],
                                            [[t, lab] for t, lab in out_rows]), out)
    after = dict(prep.class_report([lab for _, lab in out_rows]).counts)
    res.ops += 3  # load, vectorize, write
    res.wall_s = time.perf_counter() - t0

    for label, want in sorted(expected.items()):
        res.checks[f"class {label} count is {want}"] = after.get(label) == want
    inputs = Counter(zip(texts, labels))
    kept_rows = Counter(row for row in out_rows if row[1] in undersampled)
    res.checks["kept rows are a subset of the input"] = all(
        inputs[row] >= n for row, n in kept_rows.items())
    res.values["rows_out"] = (len(out_rows), "rows")
    res.digests[out.name] = sha256_file(out)
    return res


# ---------------------------------------------------------------------------
# cluster_rounds: loopback master in this process, `deskbench bench-worker`
# subprocesses, and the same round schedule run locally


def cluster_workers() -> int:
    """Two workers, but never more than the cores this process may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def _cluster_data(seed: int, size: dict):
    pool = dataio.generate_synthetic(size["rows"], size["features"], SEPARATION, seed)
    cut = size["rows"] * 4 // 5
    return pool.take(range(cut)), pool.take(range(cut, size["rows"]))


def setup_cluster_rounds(workdir: Path, seed: int, size: dict) -> None:
    train, _ = _cluster_data(seed, size)
    k = cluster_workers()
    parts = dataio.split_parts(train, k, seed)[0] if k > 1 else [train]
    for i, part in enumerate(parts, start=1):
        dataio.save_dense(part, workdir / f"part{i}.csv")


@contextmanager
def first_call_time(module, attr: str, marks: dict, key: str):
    """Record when ``module.attr`` is first called, then restore it.

    The master calls ``codec.pack_config`` right after the last HELLO has
    arrived, so its first call ends the accept phase.
    """
    original = getattr(module, attr)

    def marked(*args, **kwargs):
        marks.setdefault(key, time.perf_counter())
        return original(*args, **kwargs)

    setattr(module, attr, marked)
    try:
        yield
    finally:
        setattr(module, attr, original)


def reap(procs) -> None:
    """Kill and wait for every worker still running."""
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
    for proc in procs:
        proc.wait()


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(Path(dataio.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def pass_cluster_rounds(workdir: Path, seed: int, size: dict, state: dict) -> PassResult:
    res = PassResult()
    if "data" not in state:
        state["data"] = _cluster_data(seed, size)
    train, holdout = state["data"]
    k = cluster_workers()
    rounds = size["rounds"]
    spec = distbench.ClusterSpec(master_address="127.0.0.1:0",
                                 workers=[(wid, 1, "") for wid in range(1, k + 1)],
                                 round_timeout_s=ROUND_TIMEOUT_S, max_rounds=rounds)
    cfg = linmodels.SgdConfig(lambda_=1e-4, epochs_or_iters=1, learning_rate=0.1, seed=seed)
    procs = []
    marks = {}
    env = worker_env()

    def on_listening(addr):
        marks["listen"] = time.perf_counter()
        for wid in range(1, k + 1):
            outdir = workdir / f"worker-{wid}"
            outdir.mkdir(exist_ok=True)
            with open(outdir / "stderr.log", "wb") as log:
                procs.append(subprocess.Popen(
                    [sys.executable, "-m", "deskbench.cli", "bench-worker",
                     "--connect", f"{addr[0]}:{addr[1]}", "--part",
                     str(workdir / f"part{wid}.csv"), "--worker-id", str(wid),
                     "--outdir", str(outdir)],
                    env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                    stderr=log))

    t0 = time.perf_counter()
    try:
        with first_call_time(codec, "pack_config", marks, "hello"):
            model, record = master.run_master(spec, "logistic", cfg, rounds, holdout,
                                              "perfbench", on_listening)
        exits = [proc.wait(timeout=WORKER_EXIT_TIMEOUT_S) for proc in procs]
    finally:
        reap(procs)
    local_model, local = bench.run_local_bench(train, "logistic", cfg, rounds, holdout,
                                               "perfbench")
    res.wall_s = time.perf_counter() - t0
    res.startup_s = marks["hello"] - marks["listen"]
    res.ops += rounds + 1  # the distributed rounds and the local reference run

    params_bytes = k * codec.params_frame_size(train.num_features + 1)
    update_bytes = k * codec.update_frame_size(train.num_features + 1)
    dist_train_s = sum(record.round_wall_clock_s)
    res.samples["round_ms"] = [1000.0 * s for s in record.round_wall_clock_s]
    res.values["holdout_auc"] = (record.holdout_auc, "AUC")
    res.values["local_holdout_auc"] = (local.auc_roc, "AUC")
    res.values["train_speedup"] = (local.wall_clock_s / dist_train_s, "x")
    res.values["local_train_s"] = (local.wall_clock_s, "s")
    res.values["dist_train_s"] = (dist_train_s, "s")
    res.values["round_bytes"] = (sum(record.round_bytes_sent) + sum(record.round_bytes_received),
                                 "bytes")
    for wid, code in enumerate(exits, start=1):
        res.checks[f"worker {wid} exits 0"] = code == 0
    res.checks[f"holdout AUC within {MAX_AUC_GAP} of local"] = (
        abs(record.holdout_auc - local.auc_roc) <= MAX_AUC_GAP)
    res.checks["round bytes match the frame-size formula"] = (
        record.round_bytes_sent == [params_bytes] * rounds
        and record.round_bytes_received == [update_bytes] * rounds)
    res.digests["distributed params"] = hashlib.sha256(
        np.append(model.weights, model.bias).astype("<f8").tobytes()).hexdigest()
    res.digests["local params"] = hashlib.sha256(
        np.append(local_model.weights, local_model.bias).astype("<f8").tobytes()).hexdigest()
    return res


# ---------------------------------------------------------------------------
# registry

SETUP = {
    "dense_cv": setup_dense_cv,
    "rating_gbt": setup_rating_gbt,
    "polarity_balance": setup_polarity_balance,
    "cluster_rounds": setup_cluster_rounds,
}

PASS = {
    "dense_cv": pass_dense_cv,
    "rating_gbt": pass_rating_gbt,
    "polarity_balance": pass_polarity_balance,
    "cluster_rounds": pass_cluster_rounds,
}

WORKLOADS = tuple(SETUP)
