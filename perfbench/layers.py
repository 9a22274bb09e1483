"""Which public functions the traced pass times, and the per-layer metrics.

Span names are ``<layer>.<function>``; the layer is the first dotted
part, so self time can be summed per layer. Counts are added by the
probe hooks at the same call boundary as the span.
"""

from __future__ import annotations

import math
import os

from deskbench import artifacts, dataio, evaluation, gbt, linmodels, mlp, prep, textfeat
from deskbench.distbench import bench, codec, master, worker

import tracer
from tracer import Probe


# --- counters ---------------------------------------------------------------


def _parse_fields(rec, args, kwargs, ds):
    rec.counts["dataio.parse_dense_fields"] += ds.num_rows * (ds.num_features + 1)


def _written_bytes(rec, args, kwargs, _):
    # every write_dense call of the benchmark starts a fresh file
    rec.counts["dataio.write_dense_bytes"] += args[1].tell()


def _tokens(rec, args, kwargs, tokens):
    rec.counts["textfeat.tokens"] += len(tokens)
    rec.sets["textfeat.distinct_tokens"].update(tokens)


def _nnz(rec, args, kwargs, _):
    rec.counts["textfeat.nnz"] += args[0].nnz


def _imputed(rec, args, kwargs, _):
    frame, plan = args[0], args[1]
    rec.counts["prep.imputed_cells"] += sum(1 for v in frame.column(plan.target_column)
                                            if v is None)


def _dropped(rec, args, kwargs, kept):
    rec.counts["prep.rows_dropped"] += args[0].num_rows - kept.num_rows


def _augment_failures(rec, args, kwargs, result):
    rec.counts["prep.augment_failures"] += result.failures


def _logistic_steps(rec, args, kwargs, _):
    ds, cfg = args[0], args[1]
    rec.counts["linmodels.sgd_steps"] += cfg.epochs_or_iters * math.ceil(
        ds.num_rows / cfg.batch_size)


def _pegasos_steps(rec, args, kwargs, _):
    rec.counts["linmodels.sgd_steps"] += args[1].epochs_or_iters


def _adam_steps(rec, args, kwargs, _):
    # mirrors mlp.train: 90/10 split, trailing one-row batch skipped
    ds, cfg = args[0], args[2]
    n_train = ds.num_rows - max(1, ds.num_rows // 10)
    per_epoch = n_train // cfg.batch_size + (1 if n_train % cfg.batch_size >= 2 else 0)
    rec.counts["mlp.adam_steps"] += cfg.epochs * per_epoch


def _walk(node, depth):
    yield node, depth
    if "w" not in node:
        yield from _walk(node["l"], depth + 1)
        yield from _walk(node["r"], depth + 1)


def _trees(rec, args, kwargs, model):
    max_depth = args[2].max_depth
    rec.counts["gbt.trees"] += len(model.trees)
    for tree in model.trees:
        for node, depth in _walk(tree, 0):
            rec.counts["gbt.leaves"] += "w" in node
            # every node above max depth ran one exact-greedy split search
            rec.counts["gbt.split_searches"] += depth < max_depth


def _auc_scores(rec, args, kwargs, _):
    rec.counts["evaluation.auc_scores"] += len(args[1])


def _artifact_bytes(rec, args, kwargs, _):
    rec.counts["artifacts.bytes"] += os.path.getsize(args[0])


def _local_epochs(rec, args, kwargs, _):
    rec.counts["distbench.local_epochs"] += 1


def _round_bytes(rec, args, kwargs, result):
    _, record = result
    sent = record.round_bytes_sent
    params = codec.params_frame_size(result[0].num_features + 1)
    rec.counts["distbench.round_bytes"] += sum(sent) + sum(record.round_bytes_received)
    # a retried round broadcasts PARAMS again to the workers that timed out
    rec.counts["distbench.rebroadcasts"] += sum(s // params for s in sent) - (
        record.num_workers * len(sent))


class _TimedPredictor:
    """Times predict and score of the predictor a fold trainer returned."""

    def __init__(self, rec, inner):
        self._rec = rec
        self._inner = inner
        if hasattr(inner, "score"):
            self.score = self._timed(inner.score)

    def _timed(self, fn):
        def timed(features):
            with self._rec.span("evaluation.fold_predict"):
                return fn(features)
        return timed

    def predict(self, features):
        return self._timed(self._inner.predict)(features)


def _time_folds(rec, args, kwargs):
    """kfold_cv(ds, k, trainer, seed): time the trainer and its predictor."""
    args = list(args)
    trainer = args[2] if len(args) > 2 else kwargs["trainer"]

    def timed_trainer(train_ds):
        with rec.span("evaluation.fold_fit"):
            predictor = trainer(train_ds)
        return _TimedPredictor(rec, predictor)

    if len(args) > 2:
        args[2] = timed_trainer
    else:
        kwargs = dict(kwargs, trainer=timed_trainer)
    return tuple(args), kwargs


# --- probes -----------------------------------------------------------------

PROBES = (
    Probe(dataio, "parse_dense", "dataio.parse_dense", count=_parse_fields),
    Probe(dataio, "write_dense", "dataio.write_dense", count=_written_bytes),
    Probe(dataio, "parse_tabular", "dataio.parse_tabular"),
    Probe(dataio, "write_tabular", "dataio.write_tabular"),
    Probe(dataio, "clean_currency", "dataio.clean_currency"),
    Probe(textfeat, "vectorize_corpus", "textfeat.vectorize_corpus"),
    Probe(textfeat, "tokenize", "textfeat.tokenize", count=_tokens),
    Probe(textfeat, "hashed_tf", "textfeat.hashed_tf"),
    Probe(textfeat, "idf_fit", "textfeat.idf_fit"),
    Probe(textfeat, "idf_transform", "textfeat.idf_transform"),
    Probe(textfeat, "assemble", "textfeat.assemble"),
    Probe(textfeat.SparseVector, "to_dense", "textfeat.to_dense", count=_nnz),
    Probe(prep, "impute_fit", "prep.impute_fit"),
    Probe(prep, "impute_apply", "prep.impute_apply", count=_imputed),
    Probe(prep, "dedupe_spam", "prep.dedupe_spam", count=_dropped),
    Probe(prep, "normalize_year", "prep.normalize_year"),
    Probe(prep, "ring_undersample", "prep.ring_undersample"),
    Probe(prep, "augment", "prep.augment", count=_augment_failures),
    Probe(linmodels, "train_logistic", "linmodels.train_logistic", count=_logistic_steps),
    Probe(linmodels, "train_pegasos", "linmodels.train_pegasos", count=_pegasos_steps),
    Probe(linmodels, "decision_scores", "linmodels.decision_scores"),
    Probe(linmodels.LinearPredictor, "predict", "linmodels.predict"),
    Probe(linmodels.LinearPredictor, "score", "linmodels.score"),
    Probe(mlp, "train", "mlp.train", count=_adam_steps),
    Probe(mlp.MlpPredictor, "predict", "mlp.predict"),
    Probe(mlp.MlpPredictor, "score", "mlp.score"),
    Probe(gbt, "fit", "gbt.fit", count=_trees),
    Probe(gbt, "predict", "gbt.predict"),
    Probe(evaluation, "kfold_cv", "evaluation.kfold_cv", rewrite=_time_folds),
    Probe(evaluation, "auc_roc", "evaluation.auc_roc", count=_auc_scores),
    Probe(evaluation, "confusion_and_accuracy", "evaluation.confusion_and_accuracy"),
    Probe(evaluation, "macro_prf", "evaluation.macro_prf"),
    Probe(evaluation, "regression_metrics", "evaluation.regression_metrics"),
    Probe(artifacts, "model_artifact", "artifacts.model_artifact"),
    Probe(artifacts, "save_artifact", "artifacts.save_artifact", count=_artifact_bytes),
    Probe(artifacts, "load_artifact", "artifacts.load_artifact"),
    Probe(artifacts, "artifact_to_model", "artifacts.artifact_to_model"),
    Probe(worker, "local_epoch", "distbench.local_epoch", count=_local_epochs),
    Probe(bench, "local_train_rounds", "distbench.local_train_rounds"),
    Probe(master, "run_master", "distbench.run_master", count=_round_bytes),
    Probe(codec, "pack_config", "distbench.pack_config"),
    Probe(codec, "pack_params", "distbench.pack_params"),
    Probe(codec, "pack_done", "distbench.pack_done"),
    Probe(codec, "unpack", "distbench.unpack"),
)

# --- per-layer metrics ------------------------------------------------------


def _children_of(rec, parent_name: str, *names: str) -> float:
    """Total duration of spans ``names`` whose parent span is ``parent_name``."""
    total = 0.0
    for name, start, end, parent in zip(rec.names, rec.starts, rec.ends, rec.parents):
        if name in names and parent >= 0 and rec.names[parent] == parent_name:
            total += end - start
    return total


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


TEXT = {
    "textfeat.vectorize_s": ("s", lambda r, m: r.total("textfeat.vectorize_corpus")),
    "textfeat.tokenize_s": ("s", lambda r, m: r.total("textfeat.tokenize")),
    "textfeat.hash_s": ("s", lambda r, m: r.total("textfeat.hashed_tf")),
    "textfeat.idf_s": ("s", lambda r, m: r.total("textfeat.idf_fit", "textfeat.idf_transform")),
    "textfeat.tokens": ("count", lambda r, m: r.counts["textfeat.tokens"]),
    "textfeat.distinct_token_frac": ("frac", lambda r, m: _ratio(
        len(r.sets["textfeat.distinct_tokens"]), r.counts["textfeat.tokens"])),
    "textfeat.densify_s": ("s", lambda r, m: r.total("textfeat.to_dense", "textfeat.assemble")),
    "textfeat.nnz": ("count", lambda r, m: r.counts["textfeat.nnz"]),
}

FOLDS = {
    "evaluation.fold_fit_s": ("s", lambda r, m: r.total("evaluation.fold_fit")),
    "evaluation.fold_predict_s": ("s", lambda r, m: r.total("evaluation.fold_predict")),
    "evaluation.metrics_s": ("s", lambda r, m: r.total(
        "evaluation.confusion_and_accuracy", "evaluation.macro_prf",
        "evaluation.regression_metrics")),
}

# workload -> metric -> (unit, fn(recorder, pass result)); the pass result
# carries what the workload itself timed during the traced pass.
METRICS = {
    "dense_cv": {
        "dataio.parse_dense_s": ("s", lambda r, m: r.total("dataio.parse_dense")),
        "dataio.parse_dense_fields": ("count", lambda r, m: r.counts["dataio.parse_dense_fields"]),
        "dataio.parse_dense_fields_per_s": ("1/s", lambda r, m: _ratio(
            r.counts["dataio.parse_dense_fields"], r.total("dataio.parse_dense"))),
        "linmodels.logistic_fit_s": ("s", lambda r, m: r.total("linmodels.train_logistic")),
        "linmodels.pegasos_fit_s": ("s", lambda r, m: r.total("linmodels.train_pegasos")),
        "linmodels.sgd_steps": ("count", lambda r, m: r.counts["linmodels.sgd_steps"]),
        "linmodels.score_s": ("s", lambda r, m: r.total("linmodels.predict", "linmodels.score")),
        "mlp.train_s": ("s", lambda r, m: r.total("mlp.train")),
        "mlp.adam_steps": ("count", lambda r, m: r.counts["mlp.adam_steps"]),
        "mlp.predict_s": ("s", lambda r, m: r.total("mlp.predict", "mlp.score")),
        **FOLDS,
        "evaluation.auc_s": ("s", lambda r, m: r.total("evaluation.auc_roc")),
        "evaluation.auc_scores": ("count", lambda r, m: r.counts["evaluation.auc_scores"]),
        "artifacts.save_s": ("s", lambda r, m: r.total("artifacts.model_artifact",
                                                        "artifacts.save_artifact")),
        "artifacts.load_s": ("s", lambda r, m: r.total("artifacts.load_artifact",
                                                        "artifacts.artifact_to_model")),
        "artifacts.bytes": ("bytes", lambda r, m: r.counts["artifacts.bytes"]),
    },
    "rating_gbt": {
        "dataio.tabular_s": ("s", lambda r, m: r.total("dataio.parse_tabular",
                                                        "dataio.write_tabular")),
        "dataio.clean_currency_s": ("s", lambda r, m: r.total("dataio.clean_currency")),
        "dataio.write_dense_s": ("s", lambda r, m: r.total("dataio.write_dense")),
        "dataio.write_dense_bytes": ("bytes", lambda r, m: r.counts["dataio.write_dense_bytes"]),
        **TEXT,
        "prep.impute_s": ("s", lambda r, m: r.total("prep.impute_fit", "prep.impute_apply")),
        "prep.dedupe_s": ("s", lambda r, m: r.total("prep.dedupe_spam")),
        "prep.normalize_year_s": ("s", lambda r, m: r.total("prep.normalize_year")),
        "prep.imputed_cells": ("count", lambda r, m: r.counts["prep.imputed_cells"]),
        "prep.rows_dropped": ("count", lambda r, m: r.counts["prep.rows_dropped"]),
        "gbt.fit_s": ("s", lambda r, m: r.total("gbt.fit")),
        "gbt.predict_s": ("s", lambda r, m: r.total("gbt.predict")),
        "gbt.trees": ("count", lambda r, m: r.counts["gbt.trees"]),
        "gbt.split_searches": ("count", lambda r, m: r.counts["gbt.split_searches"]),
        "gbt.leaves": ("count", lambda r, m: r.counts["gbt.leaves"]),
        **FOLDS,
    },
    "polarity_balance": {
        "dataio.tabular_s": ("s", lambda r, m: r.total("dataio.parse_tabular",
                                                        "dataio.write_tabular")),
        **TEXT,
        "prep.ring_s": ("s", lambda r, m: r.total("prep.ring_undersample")),
        "prep.augment_s": ("s", lambda r, m: r.total("prep.augment")),
        "prep.augment_failures": ("count", lambda r, m: r.counts["prep.augment_failures"]),
    },
    "cluster_rounds": {
        "distbench.local_epoch_s": ("s", lambda r, m: tracer.median_duration(
            r, "distbench.local_epoch")),
        "distbench.local_epochs": ("count", lambda r, m: r.counts["distbench.local_epochs"]),
        "distbench.local_train_s": ("s", lambda r, m: r.total("distbench.local_train_rounds")),
        "distbench.codec_s": ("s", lambda r, m: r.total(
            "distbench.pack_config", "distbench.pack_params", "distbench.pack_done",
            "distbench.unpack")),
        "distbench.round_bytes": ("bytes", lambda r, m: r.counts["distbench.round_bytes"]),
        "distbench.rebroadcasts": ("count", lambda r, m: r.counts["distbench.rebroadcasts"]),
        "distbench.accept_s": ("s", lambda r, m: m.startup_s),
        "distbench.holdout_score_s": ("s", lambda r, m: _children_of(
            r, "distbench.run_master", "linmodels.decision_scores", "evaluation.auc_roc")),
    },
}

# Layers each workload exercises; their self time is reported per workload.
LAYERS = {
    "dense_cv": ("dataio", "linmodels", "mlp", "evaluation", "artifacts"),
    "rating_gbt": ("dataio", "textfeat", "prep", "gbt", "evaluation"),
    "polarity_balance": ("dataio", "textfeat", "prep"),
    "cluster_rounds": ("distbench", "linmodels", "evaluation"),
}


def layer_metrics(workload: str, rec, result) -> dict:
    """metric -> (value, unit) for one traced pass of ``workload``."""
    out = {name: (float(fn(rec, result)), unit)
           for name, (unit, fn) in METRICS[workload].items()}
    busy = tracer.layer_self_times(rec)
    for layer in LAYERS[workload]:
        out[f"{layer}.self_s"] = (busy.get(layer, 0.0), "s")
    return out


def metric_names() -> list:
    """Every per-layer metric name the traced run reports, in a fixed order."""
    names = []
    for workload, metrics in METRICS.items():
        names += [f"{workload}.{name}" for name in metrics]
        names += [f"{workload}.{layer}.self_s" for layer in LAYERS[workload]]
        names.append(f"{workload}.trace_overhead_s")
    return names
