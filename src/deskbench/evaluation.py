"""Metrics, k-fold cross-validation, paired-instance assignment, grid search.

Trainers are callables ``trainer(train_ds) -> predictor`` where the predictor
exposes ``predict(features) -> np.ndarray``. A classifier also exposes
``score(features)``, real-valued ranking scores for AUC; a regressor does not.

``evaluate_split`` trains on one split and scores the other; k-fold CV and
the dense benchmark script both go through it. It alone decides the task,
from the predictor: one with a ``score`` method is a classifier, whose
``predict`` returns 0/1 class ids, and one without is a regressor, so a
regressor on 0/1 targets gets RMSE.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .dataio import DenseDataset

CSV_COLUMNS = (
    "run_id",
    "algo",
    "fold",
    "accuracy",
    "macro_f1",
    "auc_roc",
    "rmse",
    "mae",
    "r2",
    "wall_clock_s",
)

# instance id -> (index pair into the 5 algorithm ids, partition index)
PLAN_LAYOUT = (
    ("A", (0, 1), 0),
    ("B", (2, 0), 1),
    ("C", (3, 2), 2),
    ("D", (4, 3), 3),
    ("E", (4, 1), 4),
)

MAX_SHUFFLE_RETRIES = 100


@dataclass
class EvalReport:
    """One evaluation outcome; fields not applicable to the task stay None."""

    accuracy: float | None = None
    macro_precision: float | None = None
    macro_recall: float | None = None
    macro_f1: float | None = None
    auc_roc: float | None = None
    confusion: list[list[int]] | None = None
    rmse: float | None = None
    mae: float | None = None
    r2: float | None = None
    wall_clock_s: float = 0.0
    fit_s: float = 0.0
    predict_s: float = 0.0


@dataclass
class GridPoint:
    params: dict
    score: float
    report: EvalReport


@dataclass
class AssignmentPlan:
    # (instance id, (algo id, algo id), partition index)
    instances: list[tuple[str, tuple[str, str], int]]


@dataclass
class PlanResult:
    per_instance: list[tuple[str, str, EvalReport]] = field(default_factory=list)
    per_algorithm: dict[str, EvalReport] = field(default_factory=dict)


def _as_int_labels(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    out = arr.astype(np.int64)
    if not np.array_equal(out, arr):
        raise ValueError(f"{name} must be integer class ids")
    return out


def confusion_and_accuracy(labels, predictions) -> tuple[list[list[int]], float]:
    y = _as_int_labels(labels, "labels")
    p = _as_int_labels(predictions, "predictions")
    if y.shape != p.shape or y.ndim != 1 or y.size == 0:
        raise ValueError("labels and predictions must be equal-length 1-d and non-empty")
    if not (np.isin(y, (0, 1)).all() and np.isin(p, (0, 1)).all()):
        raise ValueError("confusion_and_accuracy expects binary 0/1 inputs")
    confusion = np.bincount(2 * y + p, minlength=4).reshape(2, 2).tolist()
    accuracy = (confusion[0][0] + confusion[1][1]) / y.size
    return confusion, accuracy


def macro_prf(labels, predictions, num_classes: int) -> tuple[float, float, float]:
    y = _as_int_labels(labels, "labels")
    p = _as_int_labels(predictions, "predictions")
    if y.shape != p.shape or y.ndim != 1 or y.size == 0:
        raise ValueError("labels and predictions must be equal-length 1-d and non-empty")
    if num_classes < 1:
        raise ValueError("num_classes must be >= 1")
    for arr, name in ((y, "labels"), (p, "predictions")):
        if arr.min() < 0 or arr.max() >= num_classes:
            raise ValueError(f"{name} contain class ids outside [0, {num_classes})")
    precisions, recalls, f1s = [], [], []
    for c in range(num_classes):
        tp = int(np.sum((y == c) & (p == c)))
        fp = int(np.sum((y != c) & (p == c)))
        fn = int(np.sum((y == c) & (p != c)))
        prec = tp / (tp + fp) if tp + fp > 0 else 0.0
        rec = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
        precisions.append(prec)
        recalls.append(rec)
        f1s.append(f1)
    n = float(num_classes)
    return sum(precisions) / n, sum(recalls) / n, sum(f1s) / n


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties receiving the mean of their rank span."""
    n = scores.size
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    boundaries = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[boundaries[1:], n]
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat((boundaries + ends + 1) / 2.0, ends - boundaries)
    return ranks


def auc_roc(labels, scores) -> float:
    y = _as_int_labels(labels, "labels")
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape or y.ndim != 1:
        raise ValueError("labels and scores must be equal-length 1-d")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("auc_roc expects binary 0/1 labels")
    n_pos = int(np.sum(y == 1))
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc_roc undefined when only one class is present")
    ranks = _average_ranks(s)
    rank_sum_pos = float(ranks[y == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def regression_metrics(targets, predictions) -> tuple[float, float, float | None]:
    t = np.asarray(targets, dtype=np.float64)
    p = np.asarray(predictions, dtype=np.float64)
    if t.shape != p.shape or t.ndim != 1 or t.size < 2:
        raise ValueError("targets and predictions must be equal-length 1-d with >= 2 rows")
    if not (np.isfinite(t).all() and np.isfinite(p).all()):
        raise ValueError("targets and predictions must be finite")
    err = p - t
    rmse = float(np.sqrt(np.mean(err**2)))
    mae = float(np.mean(np.abs(err)))
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot == 0.0:
        return rmse, mae, None
    r2 = 1.0 - float(np.sum(err**2)) / ss_tot
    return rmse, mae, r2


def _mean_or_none(values: list) -> float | None:
    present = [v for v in values if v is not None]
    if not present:
        return None
    return float(sum(present) / len(present))


def average_reports(reports: list[EvalReport]) -> EvalReport:
    """Unweighted mean of per-fold metrics; confusions and timings summed."""
    if not reports:
        raise ValueError("cannot average zero reports")
    avg = EvalReport()
    for name in ("accuracy", "macro_precision", "macro_recall", "macro_f1",
                 "auc_roc", "rmse", "mae", "r2"):
        setattr(avg, name, _mean_or_none([getattr(r, name) for r in reports]))
    confusions = [r.confusion for r in reports if r.confusion is not None]
    if confusions:
        total = np.sum([np.asarray(c) for c in confusions], axis=0)
        avg.confusion = total.tolist()
    for name in ("wall_clock_s", "fit_s", "predict_s"):
        setattr(avg, name, float(sum(getattr(r, name) for r in reports)))
    return avg


def evaluate_split(train_ds: DenseDataset, test_ds: DenseDataset, trainer) -> EvalReport:
    """Fit trainer on train_ds and score test_ds. fit_s times the trainer,
    predict_s the predict and score calls; wall_clock_s is their sum."""
    start = time.perf_counter()
    predictor = trainer(train_ds)
    fitted = time.perf_counter()
    predictions = np.asarray(predictor.predict(test_ds.features))
    classify = hasattr(predictor, "score")
    if classify:
        scores = np.asarray(predictor.score(test_ds.features))
    fit_s, predict_s = fitted - start, time.perf_counter() - fitted
    report = EvalReport(wall_clock_s=fit_s + predict_s, fit_s=fit_s, predict_s=predict_s)
    if classify:
        report.confusion, report.accuracy = confusion_and_accuracy(
            test_ds.labels.astype(np.int64), predictions
        )
        report.macro_precision, report.macro_recall, report.macro_f1 = macro_prf(
            test_ds.labels.astype(np.int64), predictions, num_classes=2
        )
        try:
            report.auc_roc = auc_roc(test_ds.labels.astype(np.int64), scores)
        except ValueError:
            report.auc_roc = None  # single-class test fold
    else:
        report.rmse, report.mae, report.r2 = regression_metrics(
            test_ds.labels, predictions
        )
    return report


def make_folds(ds: DenseDataset, k: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffled test-fold index arrays; sizes differ by at most one.

    For binary datasets every training fold must contain both classes;
    reshuffles with seeds seed..seed+99 before giving up.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > ds.num_rows:
        raise ValueError("k exceeds the number of rows")
    attempts = MAX_SHUFFLE_RETRIES if ds.is_binary() else 1
    for attempt in range(attempts):
        perm = np.random.default_rng(seed + attempt).permutation(ds.num_rows)
        folds = np.array_split(perm, k)
        if not ds.is_binary():
            return folds
        ok = True
        for fold in folds:
            mask = np.ones(ds.num_rows, dtype=bool)
            mask[fold] = False
            train_labels = ds.labels[mask]
            if not (np.any(train_labels == 0) and np.any(train_labels == 1)):
                ok = False
                break
        if ok:
            return folds
    raise ValueError(
        f"no shuffle in {MAX_SHUFFLE_RETRIES} seeds gives every training fold both classes"
    )


def kfold_cv(ds: DenseDataset, k: int, trainer, seed: int) -> tuple[list[EvalReport], EvalReport]:
    reports = []
    for fold in make_folds(ds, k, seed):
        mask = np.ones(ds.num_rows, dtype=bool)
        mask[fold] = False
        train_ds = ds.take(np.flatnonzero(mask))
        test_ds = ds.take(np.sort(fold))
        reports.append(evaluate_split(train_ds, test_ds, trainer))
    return reports, average_reports(reports)


def build_assignment_plan(algorithms, partitions) -> AssignmentPlan:
    algos = list(algorithms)
    parts = list(partitions)
    if len(algos) != 5 or len(set(algos)) != 5:
        raise ValueError("exactly five distinct algorithm ids required")
    if len(parts) != 5:
        raise ValueError("exactly five partition ids required")
    instances = [
        (instance_id, (algos[i], algos[j]), part_index)
        for instance_id, (i, j), part_index in PLAN_LAYOUT
    ]
    return AssignmentPlan(instances=instances)


def run_plan(plan: AssignmentPlan, datasets, trainers, seed: int) -> PlanResult:
    """Train each instance's pair on its partition with 5-fold CV, then average
    the two instances each algorithm appears in."""
    datasets = list(datasets)
    if len(datasets) != 5:
        raise ValueError("run_plan needs exactly five partition datasets")
    unbound = sorted({algo for _, pair, _ in plan.instances for algo in pair} - set(trainers))
    if unbound:
        raise ValueError(f"no trainer bound to algorithm ids {unbound}")
    result = PlanResult()
    by_algo: dict[str, list[EvalReport]] = {}
    for instance_id, (algo_a, algo_b), part_index in plan.instances:
        for algo in (algo_a, algo_b):
            _, avg = kfold_cv(datasets[part_index], 5, trainers[algo], seed)
            result.per_instance.append((instance_id, algo, avg))
            by_algo.setdefault(algo, []).append(avg)
    for algo, reports in by_algo.items():
        result.per_algorithm[algo] = average_reports(reports)
    return result


def grid_search(grid: dict, k: int, ds: DenseDataset, trainer_factory, seed: int):
    """Full cartesian sweep; returns (best params, all GridPoints).

    Combination order is lexicographic in (sorted param name, value position).
    A point whose folds were scored as regression ranks by mean RMSE (min
    wins), a classification point by mean AUC (max wins); ties go to the
    earliest combination.
    """
    if not grid:
        raise ValueError("grid must not be empty")
    names = sorted(grid)
    for name in names:
        if not list(grid[name]):
            raise ValueError(f"grid parameter {name!r} has an empty value list")
    points: list[GridPoint] = []
    best_index = 0
    for combo in itertools.product(*(list(grid[name]) for name in names)):
        params = dict(zip(names, combo))
        trainer = trainer_factory(**params)
        _, avg = kfold_cv(ds, k, trainer, seed)
        regression = avg.rmse is not None
        score = avg.rmse if regression else avg.auc_roc
        if score is None:
            raise ValueError(f"grid point {params} produced no usable score")
        if points:
            best = points[best_index].score
            if score < best if regression else score > best:
                best_index = len(points)
        points.append(GridPoint(params=params, score=float(score), report=avg))
    return dict(points[best_index].params), points


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_csv_rows(rows) -> str:
    """Rows of (run_id, algo, fold, EvalReport) to CSV text in the fixed column order."""
    lines = [",".join(CSV_COLUMNS)]
    for run_id, algo, fold, report in rows:
        lines.append(",".join([
            _csv_cell(run_id),
            _csv_cell(algo),
            _csv_cell(fold),
            _csv_cell(report.accuracy),
            _csv_cell(report.macro_f1),
            _csv_cell(report.auc_roc),
            _csv_cell(report.rmse),
            _csv_cell(report.mae),
            _csv_cell(report.r2),
            _csv_cell(report.wall_clock_s),
        ]))
    return "\n".join(lines) + "\n"


def save_report_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(report_csv_rows(rows))
