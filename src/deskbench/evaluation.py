"""Metrics, k-fold cross-validation, paired-instance assignment, grid search.

Trainers are callables ``trainer(train_ds) -> predictor`` where the predictor
exposes ``predict(features) -> np.ndarray``. A classifier also exposes
``score(features)``, real-valued ranking scores for AUC; a regressor does not.
train_ds may be a DenseDataset or a dataio.RowView: k-fold CV passes each
fold's training rows as a view of the one dataset, which deskbench's
trainers read in place through dataio.matrix_rows.

``evaluate_split`` trains on one split and scores the other; k-fold CV and
the dense benchmark script both go through it. It alone decides the task,
from the predictor: one with a ``score`` method is a classifier, whose
``predict`` returns 0/1 class ids, and one without is a regressor, so a
regressor on 0/1 targets gets RMSE.
"""

from __future__ import annotations

import itertools
import pickle
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import forks
from .dataio import DenseDataset, RowView

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

# kfold_cv forks the folds after the first only when that fold's fit took at
# least this long. On a 2-core x86 VM, a fold child's fork, copy-on-write
# faults, pipe and pickled reports cost 11-13 ms with a 4000x200 dataset
# loaded (4-5 ms at 900x20, 29-38 ms at 16000x200), and forking began to pay
# at fits of about 15 ms; twice that leaves room for a busy second core.
_MIN_FORK_FIT_S = 0.03


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


def _paired_labels(labels, predictions) -> tuple[np.ndarray, np.ndarray]:
    y = _as_int_labels(labels, "labels")
    p = _as_int_labels(predictions, "predictions")
    if y.shape != p.shape or y.ndim != 1 or y.size == 0:
        raise ValueError("labels and predictions must be equal-length 1-d and non-empty")
    return y, p


def _confusion(y: np.ndarray, p: np.ndarray, k: int) -> np.ndarray:
    """k x k counts of (true class, predicted class) over ids in [0, k)."""
    return np.bincount(k * y + p, minlength=k * k).reshape(k, k)


def confusion_and_accuracy(labels, predictions) -> tuple[list[list[int]], float]:
    y, p = _paired_labels(labels, predictions)
    if not (np.isin(y, (0, 1)).all() and np.isin(p, (0, 1)).all()):
        raise ValueError("confusion_and_accuracy expects binary 0/1 inputs")
    confusion = _confusion(y, p, 2).tolist()
    accuracy = (confusion[0][0] + confusion[1][1]) / y.size
    return confusion, accuracy


def macro_prf(labels, predictions, num_classes: int) -> tuple[float, float, float]:
    """Unweighted means over num_classes classes of precision, recall and F1."""
    y, p = _paired_labels(labels, predictions)
    if num_classes < 1:
        raise ValueError("num_classes must be >= 1")
    for arr, name in ((y, "labels"), (p, "predictions")):
        if arr.min() < 0 or arr.max() >= num_classes:
            raise ValueError(f"{name} contain class ids outside [0, {num_classes})")
    confusion = _confusion(y, p, num_classes)
    tp = np.diag(confusion)
    hit = tp > 0  # else precision, recall and F1 are all 0
    precision = np.divide(tp, confusion.sum(axis=0), out=np.zeros(num_classes), where=hit)
    recall = np.divide(tp, confusion.sum(axis=1), out=np.zeros(num_classes), where=hit)
    f1 = np.divide(2 * precision * recall, precision + recall,
                   out=np.zeros(num_classes), where=hit)
    # sum() adds in class order, which fixes the bits of each mean
    return (sum(precision.tolist()) / num_classes, sum(recall.tolist()) / num_classes,
            sum(f1.tolist()) / num_classes)


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
    """Fit trainer on train_ds (a DenseDataset or a RowView) and score
    test_ds. fit_s times the trainer, predict_s the predict and score calls;
    wall_clock_s is their sum."""
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
        y = test_ds.labels.astype(np.int64)
        report.confusion, report.accuracy = confusion_and_accuracy(y, predictions)
        report.macro_precision, report.macro_recall, report.macro_f1 = macro_prf(
            y, predictions, num_classes=2
        )
        try:
            report.auc_roc = auc_roc(y, scores)
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
    n = ds.num_rows
    binary = ds.is_binary()
    positives = np.count_nonzero(ds.labels)
    for attempt in range(MAX_SHUFFLE_RETRIES if binary else 1):
        perm = np.random.default_rng(seed + attempt).permutation(n)
        folds = np.array_split(perm, k)
        # a training fold holds both classes when 0 < its positives < its size
        if not binary or all(
            0 < positives - np.count_nonzero(ds.labels[fold]) < n - len(fold) for fold in folds
        ):
            return folds
    raise ValueError(
        f"no shuffle in {MAX_SHUFFLE_RETRIES} seeds gives every training fold both classes"
    )


def _run_folds(ds: DenseDataset, folds, trainer) -> list[EvalReport]:
    # a fold's training view and test copy live only for its evaluate_split call
    return [evaluate_split(RowView(ds, np.delete(np.arange(ds.num_rows), fold)),
                           ds.take(np.sort(fold)), trainer) for fold in folds]


def _pickled_folds(ds: DenseDataset, folds, trainer):
    """The buffers a fold child sends: the byte length, then its reports."""
    data = pickle.dumps(_run_folds(ds, folds, trainer))
    return [struct.pack("=q", len(data)), data]


def kfold_cv(ds: DenseDataset, k: int, trainer, seed: int) -> tuple[list[EvalReport], EvalReport]:
    """Per-fold reports over make_folds(ds, k, seed), in fold order, and their
    average_reports.

    A fold's trainer gets a RowView of ds's training rows, and its test rows
    are copied: a fold, here or in a forked child, adds one test fold to ds.

    Fold 0 runs here. If its fit took at least _MIN_FORK_FIT_S on about one
    core (not on a BLAS's several threads), this process may fork (POSIX, no
    other thread) on two or more usable cores and two or more folds remain,
    folds 1..k-1 are cut into one contiguous group per usable core: forked
    children run all groups but the last, which runs here meanwhile, and
    pipe back their pickled reports. Otherwise every fold runs here.

    The reports are a serial run's but for the three timings, each measured
    in the process that ran its fold (overlapping folds contend for cores,
    caches and memory bandwidth; README gives figures). A group refused a
    fork joins the last group; a lost group (see forks) runs here after it.
    So an error is the one a serial run raises first, and a trainer's side
    effects are kept for fold 0, the last group and any lost group, in that
    order: 5 folds on 3 cores with both children lost train folds 0, 3, 4,
    1, 2 here.
    """
    folds = make_folds(ds, k, seed)
    wall_s, cpu_s = time.perf_counter(), time.process_time()
    reports = _run_folds(ds, folds[:1], trainer)
    wall_s, cpu_s = time.perf_counter() - wall_s, time.process_time() - cpu_s
    rest = folds[1:]
    # a fold that kept more than one core busy (a BLAS running its own threads)
    # leaves no core idle: forked folds would only fight it for them
    parallel = reports[0].fit_s >= _MIN_FORK_FIT_S and cpu_s < 1.5 * wall_s
    groups = min(forks._fork_cores(), len(rest)) if parallel else 1
    cuts = [len(rest) * i // groups for i in range(groups + 1)]
    shares = [(ds, rest[start:end], trainer) for start, end in zip(cuts[:-2], cuts[1:-1])]
    with forks.forked(_pickled_folds, shares) as children:
        running = [r for r in children.reads if r is not None]
        try:
            last = _run_folds(ds, rest[cuts[len(running)]:], trainer)
        except Exception as exc:  # raised below, after an earlier group's error
            last = exc
        for r, (_, group, _) in zip(running, shares):
            try:
                (size,) = struct.unpack("=q", forks._recv(r, bytearray(8)))
                reports += pickle.loads(forks._recv(r, bytearray(size)))
            except EOFError:
                reports += _run_folds(ds, group, trainer)
        if isinstance(last, Exception):
            raise last
        reports += last
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
        cells = [run_id, algo, fold] + [getattr(report, name) for name in CSV_COLUMNS[3:]]
        lines.append(",".join(_csv_cell(value) for value in cells))
    return "\n".join(lines) + "\n"


def save_report_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(report_csv_rows(rows))
