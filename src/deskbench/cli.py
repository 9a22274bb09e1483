"""Command line front end: one subcommand per pipeline stage.

Every subcommand accepts --config pointing at a JSON file whose keys
mirror the flag names; explicit flags override file values. Path values
read from a config file resolve relative to that file's directory,
paths given as flags resolve against the working directory as usual.
Each run echoes the merged parameters to effective-config.json in the
output directory so the run can be replayed byte for byte.

Exit codes are those of errors.py: 0 success, 1 usage or config error,
2 data error, 3 protocol or runtime error.
"""

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import artifacts, dataio, distbench, evaluation, gbt, linmodels, mlp, prep, textfeat
from .errors import (EXIT_DATA, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, ConfigError,
                     DataFormatError, ProtocolError)

ALGO_ALIASES = {
    "logreg": "logistic",
    "logistic": "logistic",
    "svm": "svm",
    "mlp": "mlp",
    "gbt": "gbt",
}

# Table-layout default: index order must satisfy the pairings
# A=(0,1), B=(2,0), C=(3,2), D=(4,3), E=(4,1).
DEFAULT_PLAN_ALGOS = ("logistic", "forest", "mlp", "gbt", "svm")

DEFAULT_MASTER_ENDPOINT = "127.0.0.1:7077"


@dataclasses.dataclass(frozen=True)
class Opt:
    """One flag: its converter, default, and config-file path handling."""

    name: str
    convert: object = str
    default: object = None
    required: bool = False
    is_path: bool = False
    help: str = ""

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


def json_value(raw):
    """Flags carry JSON text; config files may hold the object directly."""
    return json.loads(raw) if isinstance(raw, str) else raw


def csv_names(raw) -> tuple:
    if isinstance(raw, (list, tuple)):
        return tuple(str(item) for item in raw)
    parts = [part.strip() for part in str(raw).split(",")]
    return tuple(part for part in parts if part)


def integer(raw) -> int:
    """7, "7" or 7.0 as 7; a JSON bool or a number such as 2.9 is refused, not
    truncated."""
    if isinstance(raw, bool) or isinstance(raw, float) and not raw.is_integer():
        raise ValueError(f"needs an integer, got {raw!r}")
    return int(raw)


def number(raw) -> float:
    if isinstance(raw, bool):
        raise ValueError(f"needs a number, got {raw!r}")
    return float(raw)


def fold_count(raw) -> int:
    k = integer(raw)
    if k < 2:
        raise ValueError("needs at least 2 folds")
    return k


def worker_id(raw) -> int:
    wid = integer(raw)
    if not 0 <= wid < 2**32:
        raise ValueError("the HELLO frame carries ids in [0, 2**32)")
    return wid


def _opts_by_key(opts) -> dict:
    """Each Opt under its dashed flag name and its underscored dest."""
    return {key: opt for opt in opts for key in (opt.name, opt.dest)}


def merge_params(opts, args, config_data: dict, config_dir: Path) -> dict:
    """Flags override config values override Opt defaults."""
    known = _opts_by_key(opts)
    config = {}  # the config values by dest
    for key, raw in config_data.items():
        opt = known.get(key)
        if opt is None:
            raise ConfigError(f"unknown config key {key!r}")
        if opt.dest in config:
            raise ConfigError(f"config names --{opt.name} twice, as {opt.name!r} and {opt.dest!r}")
        config[opt.dest] = raw
    params = {}
    for opt in opts:
        raw = getattr(args, opt.dest, None)
        from_config = raw is None and config.get(opt.dest) is not None
        if from_config:
            raw = config[opt.dest]
        if raw is None:
            value = opt.default
        else:
            try:
                value = opt.convert(raw)
                json.dumps([raw, value], allow_nan=False)  # no NaN or inf, raw or converted
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value {raw!r} for --{opt.name}: {exc}") from exc
            if from_config and opt.is_path and isinstance(value, str):
                value = str(config_dir / value)
        if opt.required and value is None:
            raise ConfigError(f"--{opt.name} is required")
        params[opt.dest] = value
    return params


def write_json(path, payload) -> None:
    # encode first: a NaN or infinity raises ValueError and leaves no file
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def _normalize_algo(name) -> str:
    algo = ALGO_ALIASES.get(str(name).lower())
    if algo is None:
        raise ConfigError(
            f"unknown algorithm {name!r}; choose from {sorted(set(ALGO_ALIASES))}")
    return algo


def _first(*values):
    for value in values:
        if value is not None:
            return value
    return None


def _load_for_algo(path, algo: str, label_map) -> dataio.DenseDataset:
    # tree regression reads raw targets, the classifiers read {0,1} labels
    mapping = label_map or ("raw" if algo == "gbt" else "zero_one")
    return dataio.load_dense(path, label_map=mapping)


def _sgd_config(params: dict, algo: str, num_rows: int) -> linmodels.SgdConfig:
    epochs = params.get("epochs")
    if epochs is None:
        # Pegasos counts single-example steps, not passes
        epochs = 5 * num_rows if algo == "svm" else 5
    return linmodels.SgdConfig(
        lambda_=_first(params.get("lambda"), 1e-4),
        epochs_or_iters=epochs,
        batch_size=_first(params.get("batch_size"), 32),
        learning_rate=_first(params.get("lr"), 0.1),
        seed=params["seed"],
    )


def _mlp_configs(params: dict, num_features: int):
    arch = mlp.MlpArchitecture(
        input_size=num_features,
        hidden_size=params["hidden_size"],
        num_hidden_blocks=params["num_blocks"],
        output_size=2,
        dropout_p=params["dropout"],
    )
    cfg = mlp.MlpTrainConfig(
        learning_rate=_first(params.get("lr"), 1e-3),
        weight_decay=params["weight_decay"],
        epochs=_first(params.get("epochs"), 10),
        batch_size=_first(params.get("batch_size"), 128),
        seed=params["seed"],
    )
    return arch, cfg


def _gbt_config(params: dict) -> gbt.GbtConfig:
    return gbt.GbtConfig(
        max_depth=params["max_depth"],
        eta=params["eta"],
        num_round=params["num_round"],
        min_child_weight=params["min_child_weight"],
        lambda_=_first(params.get("lambda"), 1.5),
        gamma=params["gamma"],
        seed=params["seed"],
    )


def _trainer_for(algo: str, params: dict, ds: dataio.DenseDataset):
    """Trainer callable plus the config object it was built from: how train,
    cv and gridsearch turn flags into a model."""
    if algo in linmodels.MODEL_KINDS:
        cfg = _sgd_config(params, algo, ds.num_rows)
        return linmodels.make_trainer(algo, cfg), cfg
    if algo == "mlp":
        arch, cfg = _mlp_configs(params, ds.num_features)
        return mlp.make_trainer(arch, cfg), cfg
    cfg = _gbt_config(params)
    return gbt.make_trainer(cfg), cfg


def _check_endpoint(value: str) -> None:
    """host:port or [v6host]:port, parsed as the master and worker parse it."""
    try:
        host, _ = distbench.master._split_address(value)
    except ValueError as exc:
        raise ConfigError(f"bad endpoint {value!r}: {exc}") from exc
    if not host:
        raise ConfigError(f"endpoint must name a host, got {value!r}")


COMMANDS: dict = {}


def _command(name: str, help_text: str, opts: tuple):
    def register(handler):
        COMMANDS[name] = (help_text, opts, handler)
        return handler

    return register


COMMON_OPTS = (
    Opt("outdir", default=".", is_path=True, help="directory for reports and artifacts"),
    Opt("seed", integer, default=0, help="RNG seed"),
)

SGD_OPTS = (
    Opt("lambda", number, help="L2 strength (linear default 1e-4, gbt 1.5)"),
    Opt("lr", number, help="learning rate (logistic 0.1, mlp 1e-3)"),
    Opt("epochs", integer, help="passes for logistic/mlp, total steps for svm"),
    Opt("batch-size", integer, help="mini-batch size (linear 32, mlp 128)"),
)

MLP_OPTS = (
    Opt("hidden-size", integer, default=128, help="units per hidden block"),
    Opt("num-blocks", integer, default=2, help="hidden blocks"),
    Opt("dropout", number, default=0.8, help="chance to drop each hidden unit (0.8 drops 80%%)"),
    Opt("weight-decay", number, default=1e-4, help="coupled L2 on affine weights"),
)

GBT_OPTS = (
    Opt("max-depth", integer, default=10, help="most levels of splits in a tree"),
    Opt("eta", number, default=0.05, help="shrinkage per round"),
    Opt("num-round", integer, default=300, help="boosting rounds"),
    Opt("min-child-weight", number, default=5.0, help="fewest rows each child of a split must keep"),
    Opt("gamma", number, default=0.1, help="split gain threshold"),
)

HYPER_OPTS = SGD_OPTS + MLP_OPTS + GBT_OPTS
# the hyperparameter flags each algorithm trains with, the only ones a grid sweeps
ALGO_FLAGS = {"logistic": ("lambda", "lr", "epochs", "batch-size"),
              "svm": ("lambda", "epochs"), "gbt": ("lambda", *(opt.name for opt in GBT_OPTS)),
              "mlp": ("lr", "epochs", "batch-size", *(opt.name for opt in MLP_OPTS))}
LABEL_MAP_OPT = Opt("label-map", help="override label mapping: " + "|".join(dataio.LABEL_MAPS))


@_command("gen", "generate a synthetic dense binary dataset", COMMON_OPTS + (
    Opt("rows", integer, required=True, help="number of rows"),
    Opt("features", integer, required=True, help="number of feature columns"),
    Opt("separation", number, default=2.0, help="class separation strength"),
    Opt("out", required=True, is_path=True, help="output CSV path"),
))
def _cmd_gen(params, outdir):
    ds = dataio.generate_synthetic(
        params["rows"], params["features"], params["separation"], params["seed"])
    dataio.save_dense(ds, params["out"])
    print(f"wrote {params['out']} ({ds.num_rows} rows, {ds.num_features} features)")


@_command("split", "shuffle and split a dense dataset into parts", COMMON_OPTS + (
    Opt("data", required=True, is_path=True, help="dense CSV to split"),
    Opt("parts", integer, required=True, help="number of parts"),
    Opt("name", default="part", help="base name for part files"),
))
def _cmd_split(params, outdir):
    ds = dataio.load_dense(params["data"])
    parts, manifest = dataio.split_parts(ds, params["parts"], params["seed"], params["name"])
    manifest_path = dataio.save_parts(parts, manifest, outdir)
    print(f"wrote {manifest_path} and {len(parts)} parts")


@_command("train", "train one model and save its artifact", COMMON_OPTS + HYPER_OPTS + (
    Opt("algo", required=True, help="logistic|logreg|svm|mlp|gbt"),
    Opt("data", required=True, is_path=True, help="dense CSV training set"),
    LABEL_MAP_OPT,
))
def _cmd_train(params, outdir):
    algo = _normalize_algo(params["algo"])
    ds = _load_for_algo(params["data"], algo, params["label_map"])
    trainer, cfg = _trainer_for(algo, params, ds)
    predictor = trainer(ds)
    if algo == "mlp":
        mlp.save_learning_curve(outdir / "learning-curve.csv", predictor.curve)
    path = outdir / "model.json"
    artifacts.save_artifact(path, artifacts.model_artifact(predictor.model, config=cfg))
    print(f"wrote {path}")


@_command("cv", "k-fold cross-validate one algorithm", COMMON_OPTS + HYPER_OPTS + (
    Opt("algo", required=True, help="logistic|logreg|svm|mlp|gbt"),
    Opt("data", required=True, is_path=True, help="dense CSV dataset"),
    Opt("k", fold_count, default=5, help="number of folds (>= 2)"),
    LABEL_MAP_OPT,
))
def _cmd_cv(params, outdir):
    algo = _normalize_algo(params["algo"])
    ds = _load_for_algo(params["data"], algo, params["label_map"])
    trainer, _ = _trainer_for(algo, params, ds)
    reports, average = evaluation.kfold_cv(ds, params["k"], trainer, params["seed"])
    payload = {
        "algo": algo,
        "k": params["k"],
        "seed": params["seed"],
        "folds": [dataclasses.asdict(r) for r in reports],
        "average": dataclasses.asdict(average),
    }
    write_json(outdir / "report.json", payload)
    rows = [(f"fold-{i}", algo, i, report) for i, report in enumerate(reports)]
    rows.append(("cv-average", algo, None, average))
    evaluation.save_report_csv(outdir / "report.csv", rows)
    print(f"wrote {outdir / 'report.json'} ({len(reports)} folds)")


@_command("plan", "emit the five-instance algorithm assignment plan", COMMON_OPTS + (
    Opt("partitions", integer, required=True, help="partition count (the plan needs 5)"),
    Opt("algos", csv_names, default=DEFAULT_PLAN_ALGOS,
        help="five distinct algorithm ids, comma separated"),
))
def _cmd_plan(params, outdir):
    plan = evaluation.build_assignment_plan(
        list(params["algos"]), list(range(params["partitions"])))
    payload = {
        "instances": [
            {"instance": instance_id, "algorithms": list(pair), "partition": part}
            for instance_id, pair, part in plan.instances
        ],
    }
    write_json(outdir / "plan.json", payload)
    print(f"wrote {outdir / 'plan.json'}")


@_command("gridsearch", "cartesian hyperparameter sweep with k-fold CV",
          COMMON_OPTS + HYPER_OPTS + (
    Opt("algo", required=True, help="logistic|logreg|svm|mlp|gbt"),
    Opt("data", required=True, is_path=True, help="dense CSV dataset"),
    Opt("k", fold_count, default=3, help="folds per grid point (>= 2)"),
    Opt("grid", json_value, required=True,
        help="JSON object of hyperparameter flag -> list of values, "
             'e.g. {"lambda": [0.1, 0.01], "batch-size": [16, 64]}'),
    LABEL_MAP_OPT,
))
def _cmd_gridsearch(params, outdir):
    algo = _normalize_algo(params["algo"])
    grid = params["grid"]
    if not isinstance(grid, dict) or not all(isinstance(v, list) for v in grid.values()):
        raise ConfigError("--grid must be a JSON object of parameter lists")
    if not grid or not all(grid.values()):
        raise ConfigError("--grid must name at least one parameter, each with at least "
                          "one value")
    hyper = _opts_by_key(HYPER_OPTS)
    unknown = sorted(set(grid) - set(hyper))
    if unknown:
        raise ConfigError(f"unknown --grid keys {unknown}; grid keys are the "
                          f"hyperparameter flags {[opt.name for opt in HYPER_OPTS]}")

    def flag_values(point: dict) -> dict:
        """A grid point as params overrides, each value through its flag's converter."""
        try:
            return {hyper[key].dest: hyper[key].convert(value) for key, value in point.items()}
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad --grid value in {point}: {exc}") from exc

    for point in ({key: value} for key, values in grid.items() for value in values):
        flag_values(point)  # a bad value fails before any training
    for key in grid:
        opt = hyper[key]
        if key != opt.name and opt.name in grid:
            raise ConfigError(f"--grid names --{opt.name} twice, as {opt.name!r} and {opt.dest!r}")
        if opt.name not in ALGO_FLAGS[algo]:
            raise ConfigError(f"--grid key {key!r}: {algo} does not train with "
                              f"--{opt.name}; its flags are {list(ALGO_FLAGS[algo])}")
    ds = _load_for_algo(params["data"], algo, params["label_map"])

    def factory(**point):
        return _trainer_for(algo, {**params, **flag_values(point)}, ds)[0]

    best, points = evaluation.grid_search(grid, params["k"], ds, factory, params["seed"])
    payload = {
        "algo": algo,
        "k": params["k"],
        "best": best,
        "points": [
            {"params": point.params, "score": point.score,
             "report": dataclasses.asdict(point.report)}
            for point in points
        ],
    }
    write_json(outdir / "gridsearch.json", payload)
    rows = [(f"grid-{i}", algo, None, point.report) for i, point in enumerate(points)]
    evaluation.save_report_csv(outdir / "gridsearch.csv", rows)
    print(f"wrote {outdir / 'gridsearch.json'} (best: {best})")


@_command("pipeline", "tabular cleaning + text featurization to a dense dataset",
          COMMON_OPTS + (
    Opt("data", required=True, is_path=True, help="raw CSV file"),
    Opt("schema", json_value, required=True,
        help='JSON object of column -> kind, e.g. {"title": "text", "rating": "number"}'),
    Opt("target-column", required=True, help="numeric column to impute and emit as label"),
    Opt("context-columns", csv_names,
        help="imputation context columns, most to least specific"),
    Opt("currency-columns", csv_names, default=(), help="columns like $1,234,567"),
    Opt("dedupe-column", help="drop exact duplicates / too-short rows on this text column"),
    Opt("min-tokens", integer, default=3, help="minimum whitespace tokens for dedupe"),
    Opt("year-column", help="numeric column to min-max normalize"),
    Opt("text-columns", csv_names, help="columns joined into the hashed text block"),
    Opt("numeric-columns", csv_names, default=(),
        help="numeric columns appended after the text block"),
    Opt("dim", integer, default=textfeat.DEFAULT_HASH_DIM, help="hashed text dimensions"),
    Opt("min-doc-freq", integer, default=3, help="document-frequency cutoff"),
    Opt("stoplist", is_path=True, help="stopword lines, each tokenized like a document"),
    Opt("out", default="features.csv", help="dense output name inside --outdir"),
))
def _cmd_pipeline(params, outdir):
    schema = params["schema"]
    if isinstance(schema, dict):
        schema = [(name, kind) for name, kind in schema.items()]
    elif isinstance(schema, list) and all(isinstance(p, list) and len(p) == 2 for p in schema):
        schema = [(str(name), str(kind)) for name, kind in schema]
    else:
        raise ConfigError("--schema must be a JSON object or list of pairs")
    frame = dataio.load_tabular(params["data"], schema)
    stoplist = textfeat.load_stoplist(params["stoplist"]) if params["stoplist"] else None
    ds, report = prep.pipeline(
        frame, params["target_column"], params["context_columns"], params["currency_columns"],
        params["dedupe_column"], params["min_tokens"], params["year_column"],
        params["text_columns"], params["numeric_columns"], stoplist, params["dim"],
        params["min_doc_freq"])
    out_path = outdir / params["out"]
    dataio.save_dense(ds, out_path)
    write_json(outdir / "pipeline-report.json", report)
    print(f"wrote {out_path} ({ds.num_rows} rows, {ds.num_features} features)")


@_command("balance", "ring-undersample majority classes, augment the rest",
          COMMON_OPTS + (
    Opt("data", required=True, is_path=True, help="CSV with text and label columns"),
    Opt("text-column", default="text"),
    Opt("label-column", default="label"),
    Opt("target-size", integer, required=True, help="per-class row budget"),
    Opt("factor", integer, default=1, help="augmentation factor for classes under budget"),
    Opt("rings", integer, default=10, help="distance rings per undersampled class"),
    Opt("dim", integer, default=textfeat.DEFAULT_HASH_DIM, help="hashed text dimensions"),
    Opt("min-doc-freq", integer, default=1, help="document-frequency cutoff"),
    Opt("out", default="balanced.csv", help="output name inside --outdir"),
))
def _cmd_balance(params, outdir):
    text_col, label_col = params["text_column"], params["label_column"]
    frame = dataio.load_tabular(params["data"], [(text_col, "text"), (label_col, "text")])
    texts = ["" if v is None else str(v) for v in frame.column(text_col)]
    labels = ["" if v is None else str(v) for v in frame.column(label_col)]
    before = prep.class_report(labels)
    (outdir / "class-report-before.csv").write_text(before.to_csv(), encoding="utf-8")

    out_rows, failures = prep.rebalance(
        texts, labels, params["target_size"], params["factor"], params["rings"],
        params["seed"], params["dim"], params["min_doc_freq"])
    out_frame = dataio.TabularFrame(
        [(text_col, "text"), (label_col, "text")],
        [[text, label] for text, label in out_rows])
    out_path = outdir / params["out"]
    dataio.save_tabular(out_frame, out_path)
    after = prep.class_report([label for _, label in out_rows])
    (outdir / "class-report-after.csv").write_text(after.to_csv(), encoding="utf-8")
    print(f"wrote {out_path} ({len(out_rows)} rows, {failures} augment failures)")


BENCH_OPTS = (
    Opt("algo", required=True, help="logistic|logreg|svm (wire protocol models)"),
    Opt("rounds", integer, required=True, help="synchronous training rounds"),
    Opt("lambda", number, help="L2 strength (default 1e-4)"),
    Opt("lr", number, help="learning rate (default 0.1)"),
    Opt("holdout", is_path=True, help="dense CSV scored for AUC after training"),
    Opt("manifest", help="dataset tag recorded for comparison matching"),
)


def _bench_setup(params) -> tuple:
    """The algorithm a bench command trains, refused unless it travels the
    wire, its one-epoch-per-round SgdConfig and the manifest tag."""
    algo = _normalize_algo(params["algo"])
    if algo not in distbench.ALGO_CODES:
        raise ConfigError(f"only {sorted(distbench.ALGO_CODES)} travel the wire")
    # with epochs set the row count is unused
    cfg = _sgd_config({**params, "epochs": 1}, algo, 0)
    return algo, cfg, _first(params["manifest"], "")


def _bench_output(outdir, name: str, record, auc, model, cfg) -> None:
    write_json(outdir / name, dataclasses.asdict(record))
    artifacts.save_artifact(outdir / "model.json", artifacts.model_artifact(model, config=cfg))
    auc = "n/a" if auc is None else f"{auc:.4f}"
    print(f"wrote {outdir / name} (wall {record.wall_clock_s:.2f}s, auc {auc})")


@_command("bench-local", "time single-node training with the round schedule",
          COMMON_OPTS + BENCH_OPTS + (
    Opt("data", required=True, is_path=True, help="dense CSV training set"),
))
def _cmd_bench_local(params, outdir):
    algo, cfg, manifest = _bench_setup(params)
    ds = dataio.load_dense(params["data"], label_map="zero_one")
    holdout = params["holdout"] and dataio.load_dense(params["holdout"], label_map="zero_one")
    model, result = distbench.run_local_bench(ds, algo, cfg, params["rounds"], holdout, manifest)
    _bench_output(outdir, "local-bench.json", result, result.auc_roc, model, cfg)


@_command("bench-master", "coordinate distributed training over sockets",
          COMMON_OPTS + BENCH_OPTS + (
    Opt("listen", default=DEFAULT_MASTER_ENDPOINT, help="host:port to bind"),
    Opt("workers", integer, help="expect worker ids 1..N"),
    Opt("worker-ids", csv_names, help="explicit comma-separated worker ids"),
    Opt("round-timeout", number, default=30.0, help="seconds per round and handshake"),
))
def _cmd_bench_master(params, outdir):
    algo, cfg, manifest = _bench_setup(params)
    if params["worker_ids"] is not None:
        try:
            ids = [int(v) for v in params["worker_ids"]]
        except ValueError as exc:
            raw = ",".join(params["worker_ids"])
            raise ConfigError(f"bad value {raw!r} for --worker-ids: {exc}") from exc
    elif params["workers"] is not None:
        ids = list(range(1, params["workers"] + 1))
    else:
        raise ConfigError("--workers or --worker-ids is required")
    _check_endpoint(params["listen"])
    spec = distbench.ClusterSpec(
        master_address=params["listen"],
        workers=[(wid, 1, "") for wid in ids],
        round_timeout_s=params["round_timeout"],
        max_rounds=params["rounds"],
    )
    holdout = params["holdout"] and dataio.load_dense(params["holdout"], label_map="zero_one")
    model, record = distbench.run_master(spec, algo, cfg, params["rounds"], holdout, manifest)
    _bench_output(outdir, "dist-bench.json", record, record.holdout_auc, model, cfg)


@_command("bench-worker", "serve one data part to a benchmark master", COMMON_OPTS + (
    Opt("connect", default=DEFAULT_MASTER_ENDPOINT, help="master host:port"),
    Opt("part", required=True, is_path=True, help="dense CSV part to train on"),
    Opt("worker-id", worker_id, required=True),
    Opt("reconnect-attempts", integer, default=3,
        help="attempts to connect to the master; a connection lost after HELLO is final"),
))
def _cmd_bench_worker(params, outdir):
    _check_endpoint(params["connect"])
    return distbench.run_worker(
        params["connect"], params["part"], params["worker_id"],
        reconnect_attempts=params["reconnect_attempts"])


def _load_record(cls, path: str, auc_field: str):
    """One bench result written as dataclasses.asdict(cls(...)), with a finite
    wall_clock_s, an auc_field that is null or finite and, in a BenchRecord,
    a round_wall_clock_s list of finite, non-negative numbers."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    try:
        record = cls(**data)
    except TypeError as exc:
        raise DataFormatError(f"{path} is not a {cls.__name__} record: {exc}") from exc
    for name in ("wall_clock_s", auc_field):
        value = getattr(record, name)
        if value is None and name == auc_field:
            continue
        if type(value) not in (int, float) or not math.isfinite(value):  # bool is not a number
            raise DataFormatError(f"{path}: {name} is not a finite number: {value!r}")
    rounds = getattr(record, "round_wall_clock_s", [])  # a LocalBenchResult has none
    if type(rounds) is not list or not all(
            type(v) in (int, float) and math.isfinite(v) and v >= 0 for v in rounds):
        raise DataFormatError(f"{path}: round_wall_clock_s is not a list of finite, "
                              "non-negative numbers")
    return record


@_command("report", "render the local-vs-distributed comparison CSV", COMMON_OPTS + (
    Opt("local", required=True, is_path=True, help="local-bench.json path"),
    Opt("dist", required=True, is_path=True, help="dist-bench.json path"),
    Opt("out", default="comparison.csv", help="output name inside --outdir"),
))
def _cmd_report(params, outdir):
    local = _load_record(distbench.LocalBenchResult, params["local"], "auc_roc")
    dist = _load_record(distbench.BenchRecord, params["dist"], "holdout_auc")
    rows = distbench.bench_compare(local, dist)
    out_path = outdir / params["out"]
    out_path.write_text(distbench.render_comparison_csv(rows), encoding="utf-8")
    print(f"wrote {out_path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deskbench",
        description="desk-scale training, preparation, and benchmark harness")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (help_text, opts, _handler) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", default=None,
                         help="JSON file of defaults; keys mirror the flag names")
        for opt in opts:
            cmd.add_argument("--" + opt.name, dest=opt.dest, default=None,
                             metavar="V", help=opt.help)
    return parser


def _load_config(path_text: str) -> tuple:
    path = Path(path_text)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path_text!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data, path.resolve().parent


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return EXIT_OK if code == 0 else EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    _help, opts, handler = COMMANDS[args.command]
    config_data, config_dir = {}, Path.cwd()
    if args.config:
        config_data, config_dir = _load_config(args.config)
        declared = config_data.pop("command", None)
        if declared is not None and declared != args.command:
            raise ConfigError(
                f"config file is for {declared!r}, not {args.command!r}")
    params = merge_params(opts, args, config_data, config_dir)
    for opt in opts:
        # absolute paths make the echoed config replayable from anywhere
        if opt.is_path and isinstance(params[opt.dest], str):
            params[opt.dest] = str(Path(params[opt.dest]).resolve())

    outdir = Path(params["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    write_json(outdir / "effective-config.json",
               {"command": args.command, **params})
    try:
        result = handler(params, outdir)
    except KeyboardInterrupt:
        # partial reports: whatever completed stages already wrote, plus a marker
        write_json(outdir / "interrupted.json",
                   {"command": args.command, "status": "interrupted"})
        print("interrupted: partial reports flushed to the output directory",
              file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK if result is None else int(result)


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, FileNotFoundError, IsADirectoryError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (OSError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
