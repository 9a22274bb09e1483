"""Independent reference implementations used only by the test suite."""

import csv
import dataclasses
import json
import re
import struct

import numpy as np

from deskbench import mlp, prep, textfeat
from deskbench.artifacts import f64_to_b64
from deskbench.dataio import LABEL_MAPS, DenseDataset, _parse_label, _text_lines
from deskbench.distbench.codec import Frame
from deskbench.errors import ConfigError, DataFormatError, ProtocolError
from deskbench.gbt import GbtModel
from deskbench.evaluation import (MAX_SHUFFLE_RETRIES, _as_int_labels, average_reports,
                                  evaluate_split, make_folds)
from deskbench.linmodels import LinearModel
from deskbench.mlp import MlpModel
from deskbench.textfeat import IdfModel, SparseVector, remove_stopwords


def batch_pegasos_oracle(ds, lambda_, steps=50_000):
    """Deterministic full-batch projected sub-gradient descent on the primal
    SVM objective, step size 1/(lambda*t). Returns the best objective seen."""
    y = np.where(ds.labels == 1.0, 1.0, -1.0)
    X = ds.features
    n, f = X.shape
    w = np.zeros(f, dtype=np.float64)
    b = 0.0
    radius = 1.0 / np.sqrt(lambda_)
    best = np.inf
    for t in range(1, steps + 1):
        margins = y * (X @ w + b)
        viol = margins < 1.0
        grad_w = lambda_ * w - (y[viol, None] * X[viol]).sum(axis=0) / n
        grad_b = -float(y[viol].sum()) / n
        eta = 1.0 / (lambda_ * t)
        w -= eta * grad_w
        b -= eta * grad_b
        norm = float(np.linalg.norm(w))
        if norm > radius:
            w *= radius / norm
        hinge = np.maximum(0.0, 1.0 - y * (X @ w + b))
        obj = 0.5 * lambda_ * float(w @ w) + float(hinge.mean())
        if obj < best:
            best = obj
    return best


def svm_objective(model, ds, lambda_):
    """Primal SVM objective: (lambda/2)||w||^2 + mean hinge loss on +-1 labels."""
    y = np.where(ds.labels == 1.0, 1.0, -1.0)
    hinge = np.maximum(0.0, 1.0 - y * (ds.features @ model.weights + model.bias))
    return float(0.5 * lambda_ * np.dot(model.weights, model.weights) + np.mean(hinge))


def brute_force_best_split(X, g, lambda_, gamma, min_child_weight):
    """Exhaustive (feature, threshold) gain enumeration with unit hessians.

    Returns (gain, feature, threshold) maximizing the regularized gain, ties
    broken by smallest feature index then smallest threshold; None when no
    candidate passes the gain and child-weight gates."""
    X = np.asarray(X, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    n, num_features = X.shape
    G, H = float(g.sum()), float(n)
    parent = G * G / (H + lambda_)
    best = None
    for f in range(num_features):
        values = np.unique(X[:, f])
        for lo, hi in zip(values[:-1], values[1:]):
            t = lo + (hi - lo) / 2.0
            if t >= hi:
                t = lo
            mask = X[:, f] <= t
            h_left = float(mask.sum())
            h_right = H - h_left
            if h_left < min_child_weight or h_right < min_child_weight:
                continue
            g_left = float(g[mask].sum())
            g_right = G - g_left
            gain = 0.5 * (
                g_left**2 / (h_left + lambda_)
                + g_right**2 / (h_right + lambda_)
                - parent
            ) - gamma
            if gain <= 0.0:
                continue
            if best is None or gain > best[0]:
                best = (gain, f, t)
    return best


def exact_greedy_split_oracle(features, g, rows, cfg):
    """Exact greedy search at one node, one feature at a time: the split
    search gbt used before it evaluated every column of a node at once.

    Returns (gain, feature, threshold, left_rows, right_rows) or None.
    Ties broken by (max gain, min feature index, min threshold); the
    ascending scan order makes argmax pick exactly that.
    """
    G = float(g[rows].sum())
    H = float(rows.size)
    lam = cfg.lambda_
    parent_term = G * G / (H + lam)
    best = None
    for f in range(features.shape[1]):
        values = features[rows, f]
        order = np.argsort(values, kind="mergesort")
        sorted_vals = values[order]
        boundaries = np.flatnonzero(sorted_vals[:-1] != sorted_vals[1:])
        if boundaries.size == 0:
            continue
        cum_g = np.cumsum(g[rows][order])
        g_left = cum_g[boundaries]
        h_left = (boundaries + 1).astype(np.float64)
        g_right = G - g_left
        h_right = H - h_left
        gains = 0.5 * (
            g_left**2 / (h_left + lam)
            + g_right**2 / (h_right + lam)
            - parent_term
        ) - cfg.gamma
        ok = (gains > 0.0) & (h_left >= cfg.min_child_weight) & (h_right >= cfg.min_child_weight)
        if not ok.any():
            continue
        gains = np.where(ok, gains, -np.inf)
        k = int(np.argmax(gains))
        if best is not None and gains[k] <= best[0]:
            continue
        b = boundaries[k]
        lo, hi = sorted_vals[b], sorted_vals[b + 1]
        threshold = lo + (hi - lo) / 2.0
        if threshold >= hi:  # midpoint rounded up to the right value
            threshold = lo
        left = rows[order[: b + 1]]
        right = rows[order[b + 1:]]
        best = (float(gains[k]), f, float(threshold), left, right)
    return best


def _grow_oracle(features, g, rows, depth, cfg, deltas):
    G = float(g[rows].sum())
    H = float(rows.size)
    if depth < cfg.max_depth:
        split = exact_greedy_split_oracle(features, g, rows, cfg)
        if split is not None:
            _, f, t, left, right = split
            return {
                "f": f,
                "t": t,
                "l": _grow_oracle(features, g, left, depth + 1, cfg, deltas),
                "r": _grow_oracle(features, g, right, depth + 1, cfg, deltas),
            }
    weight = cfg.eta * (-G / (H + cfg.lambda_))
    deltas[rows] = weight
    return {"w": weight}


def gbt_fit_oracle(features, targets, cfg):
    """The whole boosting loop over exact_greedy_split_oracle: what gbt.fit
    did before it searched splits on per-fit value ranks. Valid input only."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    base = float(y.mean())
    preds = np.full(y.shape[0], base, dtype=np.float64)
    all_rows = np.arange(y.shape[0])
    trees = []
    for _ in range(cfg.num_round):
        g = preds - y
        deltas = np.zeros_like(preds)
        trees.append(_grow_oracle(X, g, all_rows, 0, cfg, deltas))
        preds += deltas
    return GbtModel(base_score=base, trees=trees, num_features=X.shape[1])


def apply_tree_oracle(node, X, rows, out):
    """Add one tree's leaf weights to out[rows], recursing node by node: the
    walk gbt.predict made before it walked the trees as arrays."""
    if "w" in node:
        out[rows] += node["w"]
        return
    go_left = X[rows, node["f"]] <= node["t"]
    apply_tree_oracle(node["l"], X, rows[go_left], out)
    apply_tree_oracle(node["r"], X, rows[~go_left], out)


def gbt_predict_oracle(model, features):
    """gbt.predict as one recursive walk per tree, for valid input."""
    X = np.asarray(features, dtype=np.float64)
    out = np.full(X.shape[0], model.base_score, dtype=np.float64)
    rows = np.arange(X.shape[0])
    for tree in model.trees:
        apply_tree_oracle(tree, X, rows, out)
    return out


def make_folds_oracle(ds, k, seed):
    """evaluation.make_folds before it counted positives: a boolean mask and
    a copy of the training labels per fold, each checked for a 0 and a 1."""
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


def kfold_cv_oracle(ds, k, trainer, seed):
    """k-fold CV as one serial loop over make_folds: (reports, average)."""
    reports = []
    for fold in make_folds(ds, k, seed):
        mask = np.ones(ds.num_rows, dtype=bool)
        mask[fold] = False
        train_ds = ds.take(np.flatnonzero(mask))
        test_ds = ds.take(np.sort(fold))
        reports.append(evaluate_split(train_ds, test_ds, trainer))
    return reports, average_reports(reports)


def auc_pair_oracle(labels, scores):
    """O(n^2) pair counting: (concordant + half ties) / (n_pos * n_neg)."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    greater = (pos[:, None] > neg[None, :]).sum()
    equal = (pos[:, None] == neg[None, :]).sum()
    return (greater + 0.5 * equal) / (pos.size * neg.size)


def parse_dense_oracle(stream, num_features, label_map):
    """The dense parser before it converted each line in one call: one
    float(), one finiteness check and one element store per field."""
    if label_map not in LABEL_MAPS:
        raise ConfigError(f"label_map must be one of {LABEL_MAPS}")
    if num_features is not None and num_features < 1:
        raise ConfigError("num_features must be >= 1")

    labels: list[float] = []
    rows: list[np.ndarray] = []
    width = num_features
    with _text_lines(stream) as lines:
        for line_no, line in enumerate(lines, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if line == "":
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields) - 1
                if width < 1:
                    raise DataFormatError(f"line {line_no}: no feature fields")
            if len(fields) != width + 1:
                raise DataFormatError(
                    f"line {line_no}: expected {width + 1} fields, got {len(fields)}"
                )
            labels.append(_parse_label(fields[0], label_map, line_no))
            vec = np.empty(width, dtype=np.float64)
            for j, raw in enumerate(fields[1:], start=2):
                try:
                    v = float(raw)
                except ValueError:
                    raise DataFormatError(
                        f"line {line_no}, column {j}: non-numeric field {raw!r}"
                    ) from None
                if not np.isfinite(v):
                    raise DataFormatError(
                        f"line {line_no}, column {j}: non-finite field {raw!r}"
                    )
                vec[j - 2] = v
            rows.append(vec)

    if not rows:
        raise DataFormatError("empty dense stream")
    return DenseDataset(np.array(labels), np.vstack(rows))


def write_dense_oracle(ds, stream):
    """The dense writer before it listed each row: one repr(float(v)) per
    numpy scalar."""
    with _text_lines(stream) as out:
        for i in range(ds.num_rows):
            fields = [repr(float(ds.labels[i]))]
            fields.extend(repr(float(v)) for v in ds.features[i])
            out.write(",".join(fields))
            out.write("\n")
        out.flush()


def write_tabular_oracle(frame, stream):
    """The tabular writer before it wrote the cells in one call: one row at a
    time, each missing cell swapped for an empty string first."""
    with _text_lines(stream) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([name for name, _ in frame.columns])
        for row in frame.cells:
            writer.writerow(["" if v is None else v for v in row])
        out.flush()


def average_ranks_oracle(scores):
    """1-based ranks, ties averaged, one Python step per tie group: the
    rank pass auc_roc used before it assigned all groups at once."""
    n = scores.size
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    boundaries = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[boundaries[1:], n]
    ranks = np.empty(n, dtype=np.float64)
    for start, end in zip(boundaries, ends):
        ranks[order[start:end]] = (start + end + 1) / 2.0
    return ranks


def confusion_and_accuracy_oracle(labels, predictions):
    """Per-row confusion counting, as evaluation did before np.bincount."""
    y = _as_int_labels(labels, "labels")
    p = _as_int_labels(predictions, "predictions")
    if y.shape != p.shape or y.ndim != 1 or y.size == 0:
        raise ValueError("labels and predictions must be equal-length 1-d and non-empty")
    if not (np.isin(y, (0, 1)).all() and np.isin(p, (0, 1)).all()):
        raise ValueError("confusion_and_accuracy expects binary 0/1 inputs")
    confusion = [[0, 0], [0, 0]]
    for yi, pi in zip(y, p):
        confusion[yi][pi] += 1
    accuracy = (confusion[0][0] + confusion[1][1]) / y.size
    return confusion, accuracy


def macro_prf_oracle(labels, predictions, num_classes):
    """evaluation.macro_prf before it read one confusion matrix: three
    boolean passes per class and Python float division."""
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


def sigmoid_oracle(z):
    """The logistic function as linmodels computed it before the lean step:
    a boolean mask and two scatters, one stable formula per sign."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def train_pegasos_oracle(ds, cfg, step_hook=None):
    """linmodels.train_pegasos before its projection took the norm as
    sqrt(w @ w): np.linalg.norm on every step. Returns (weights, bias).
    step_hook(t, w), if given, runs after each step and must not mutate w."""
    y01 = ds.labels.astype(np.int64)
    X = ds.features
    if cfg.class_weights is None:
        c = np.ones(y01.size, dtype=np.float64)
    else:
        w0, w1 = cfg.class_weights
        c = np.where(y01 == 1, float(w1), float(w0))
    y = np.where(y01 == 1, 1.0, -1.0)
    n, f = X.shape
    T = cfg.epochs_or_iters
    lam = cfg.lambda_
    radius = 1.0 / np.sqrt(lam)
    picks = np.random.default_rng(cfg.seed).integers(0, n, size=T)
    w = np.zeros(f, dtype=np.float64)
    b = 0.0
    suffix_start = T // 2 + 1
    w_sum = np.zeros(f, dtype=np.float64)
    b_sum = 0.0
    for t in range(1, T + 1):
        i = picks[t - 1]
        eta = 1.0 / (lam * t)
        margin = y[i] * (X[i] @ w + b)
        w *= 1.0 - eta * lam
        if margin < 1.0:
            w += eta * c[i] * y[i] * X[i]
            b += eta * c[i] * y[i]
        if cfg.project:
            norm = float(np.linalg.norm(w))
            if norm > radius:
                w *= radius / norm
        if t >= suffix_start:
            w_sum += w
            b_sum += b
        if step_hook is not None:
            step_hook(t, w)
    count = T - suffix_start + 1
    return w_sum / count, float(b_sum / count)


def train_logistic_oracle(ds, cfg):
    """Single-node logistic training as it was before sgd_epoch: its own
    mini-batch loop, gathering each batch's rows twice."""
    y01 = ds.labels.astype(np.int64)
    X = ds.features
    if cfg.class_weights is None:
        c = np.ones(y01.size, dtype=np.float64)
    else:
        w0, w1 = cfg.class_weights
        c = np.where(y01 == 1, float(w1), float(w0))
    n, f = X.shape
    w = np.zeros(f, dtype=np.float64)
    b = 0.0
    y = y01.astype(np.float64)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs_or_iters):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            z = X[idx] @ w + b
            residual = c[idx] * (sigmoid_oracle(z) - y[idx])
            grad_w = X[idx].T @ residual / idx.size + cfg.lambda_ * w
            grad_b = float(np.mean(residual))
            w -= cfg.learning_rate * grad_w
            b -= cfg.learning_rate * grad_b
    return w, b


def local_epoch_oracle(algo, weights, bias, features, y01, lambda_, lr, rng,
                       batch_size=64):
    """The worker's local epoch as it was before sgd_epoch: a separate
    logistic step and a hinge step on labels mapped to +-1."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(y01, dtype=np.float64)
    w = np.array(weights, dtype=np.float64)
    b = float(bias)
    n = X.shape[0]
    pm = 2.0 * y - 1.0
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        idx = perm[start:start + batch_size]
        if algo == "logistic":
            z = X[idx] @ w + b
            residual = sigmoid_oracle(z) - y[idx]
            grad_w = X[idx].T @ residual / idx.size + lambda_ * w
            grad_b = float(np.mean(residual))
        else:
            margins = pm[idx] * (X[idx] @ w + b)
            viol = margins < 1.0
            signed = pm[idx] * viol
            grad_w = lambda_ * w - X[idx].T @ signed / idx.size
            grad_b = -float(np.mean(signed))
        w -= lr * grad_w
        b -= lr * grad_b
    return w, b


def tokenize_oracle(text: str) -> list[str]:
    """Every maximal letter/digit run, then the runs shorter than 2 dropped."""
    return [t for t in re.findall(r"[^\W_]+", text.lower()) if len(t) >= 2]


def sparse_vector_check_oracle(dim, indices, values) -> None:
    """SparseVector's validation as a per-element loop; raises ConfigError."""
    if dim < 1:
        raise ConfigError("dim must be >= 1")
    if len(indices) != len(values):
        raise ConfigError("indices and values must have equal length")
    prev = -1
    for i in indices:
        if not prev < i < dim:
            raise ConfigError("indices must be strictly increasing in [0, dim)")
        prev = i
    if any(v == 0.0 for v in values):
        raise ConfigError("explicit zeros are not allowed")


def sparse_to_dense_oracle(vec) -> np.ndarray:
    """SparseVector.to_dense before it filled through np.fromiter."""
    out = np.zeros(vec.dim)
    if vec.indices:
        out[list(vec.indices)] = vec.values
    return out


def fnv1a_64_oracle(data: bytes) -> int:
    """Scalar 64-bit FNV-1a, one byte at a time."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & ((1 << 64) - 1)
    return h


def vectorize_corpus_oracle(texts, stoplist=None, dim=5000, min_doc_freq=3):
    """Hashed TF-IDF one document at a time, as textfeat did before the corpus
    pass: a scalar hash per token occurrence, a tf vector per document, then
    the idf fit and an elementwise transform of every tf vector."""
    stoplist = stoplist or set()
    tf = []
    for text in texts:
        tokens = remove_stopwords(tokenize_oracle(text), stoplist)
        if dim < 1:
            raise ConfigError("dim must be >= 1")
        counts = {}
        for token in tokens:
            idx = fnv1a_64_oracle(token.encode("utf-8")) % dim
            counts[idx] = counts.get(idx, 0.0) + 1.0
        items = sorted(counts.items())
        tf.append(SparseVector(dim, tuple(i for i, _ in items), tuple(v for _, v in items)))
    if not tf:
        raise ConfigError("empty corpus")
    df = np.zeros(dim, dtype=np.int64)
    for vec in tf:
        for i in vec.indices:
            df[i] += 1
    n = len(tf)
    idf = np.zeros(dim)
    kept = df >= min_doc_freq
    idf[kept] = np.log((n + 1) / (df[kept] + 1))
    model = IdfModel(dim, n, tuple(int(x) for x in df), min_doc_freq,
                     tuple(float(x) for x in idf))
    out = []
    for vec in tf:
        pairs = [(i, v * model.idf[i]) for i, v in zip(vec.indices, vec.values)]
        pairs = [(i, w) for i, w in pairs if w != 0.0]
        out.append(SparseVector(dim, tuple(i for i, _ in pairs), tuple(w for _, w in pairs)))
    return out, model


def centroid_distances_oracle(points):
    """Row distances to the mean row over the whole matrix at once: two
    (rows x dim) temporaries, the difference and its square."""
    return np.linalg.norm(points - points.mean(axis=0), axis=1)


def ring_undersample_oracle(vectors, cfg):
    """ring_undersample with its distances taken over the full matrix."""
    points = np.asarray(vectors, dtype=np.float64)
    if points.ndim != 2:
        raise DataFormatError("vectors must be a 2-d array")
    n = points.shape[0]
    if cfg.target_size > n:
        raise ConfigError(f"target_size {cfg.target_size} exceeds class size {n}")

    order = np.lexsort((np.arange(n), centroid_distances_oracle(points)))
    rings = np.array_split(order, cfg.num_rings)
    quotas = prep._largest_remainder_quotas([r.size for r in rings], cfg.target_size)

    rng = np.random.default_rng(cfg.seed)
    chosen = []
    for ring, quota in zip(rings, quotas):
        if quota:
            chosen.extend(rng.choice(ring, size=quota, replace=False).tolist())
    return sorted(int(i) for i in chosen)


def rebalance_oracle(texts, labels, target_size, factor, num_rings, seed, dim, min_doc_freq):
    """The balance loop as `deskbench balance` wrote it inline: vectorize the
    corpus, then per class (largest first) ring-undersample on rows stacked
    one by one with full-matrix distances, augment or keep."""
    vectors, _ = textfeat.vectorize_corpus(texts, None, dim, min_doc_freq)
    by_label = {}
    for i, label in enumerate(labels):
        by_label.setdefault(label, []).append(i)
    augmenter = prep.SynonymAugmenter()
    out_rows = []
    failures = 0
    for label, _count in prep.class_report(labels).counts:
        idx = by_label[label]
        if len(idx) > target_size:
            dense = np.stack([vectors[i].to_dense() for i in idx])
            cfg = prep.RingConfig(target_size, num_rings, seed)
            kept = ring_undersample_oracle(dense, cfg)
            out_rows.extend((texts[idx[j]], label) for j in kept)
        elif len(idx) < target_size and factor > 1:
            result = prep.augment([(texts[i], label) for i in idx], augmenter, factor, seed)
            failures += result.failures
            out_rows.extend(result.items)
        else:
            out_rows.extend((texts[i], label) for i in idx)
    return out_rows, failures


def all_text_column_oracle(frame, columns=textfeat.DEFAULT_ALL_TEXT_COLUMNS):
    """The joined text of each row as textfeat built it cell by cell, looking
    up each cell's column by name: present, non-empty cells, space-joined."""
    texts = []
    for row_index in range(frame.num_rows):
        pieces = []
        for name in columns:
            cell = frame.cells[row_index][frame.col_index(name)]
            if cell is None:
                continue
            piece = str(cell)
            if piece:
                pieces.append(piece)
        texts.append(" ".join(pieces))
    return texts


def feature_matrix_oracle(frame, text_columns, numeric_columns, stoplist, dim, min_doc_freq):
    """The feature matrix as `deskbench pipeline` built it inline: one
    assembled sparse row per document, densified into a preallocated matrix."""
    texts = all_text_column_oracle(frame, text_columns)
    vectors, idf_model = textfeat.vectorize_corpus(texts, stoplist, dim, min_doc_freq)
    numeric_columns = list(numeric_columns)
    numeric_values = {name: frame.column(name) for name in numeric_columns}
    features = np.zeros((frame.num_rows, dim + len(numeric_columns)))
    for i, vec in enumerate(vectors):
        numerics = [(name, float(numeric_values[name][i] or 0.0)) for name in numeric_columns]
        features[i] = textfeat.assemble(vec, numerics).to_dense()
    return features, idf_model


# ---------------------------------------------------------------------------
# The wire codec as it was written per frame type: one pack function each,
# one branch each in unpack.

_MAX_FRAME = 64 * 1024 * 1024
_ALGO_CODES = {"logistic": 1, "svm": 2}
_ALGO_NAMES = {code: name for name, code in _ALGO_CODES.items()}
_TYPE_NAMES = {0: "error", 1: "hello", 2: "config", 3: "params", 4: "update", 5: "done"}
_HELLO_FMT = ">IQI"     # worker_id, num_rows, num_features
_CONFIG_HEAD = ">BIQ"   # algo, round_count, seed
_PARAMS_HEAD = ">II"    # round, count
_UPDATE_HEAD = ">IQI"   # round, sample_count, count


def _frame_oracle(payload: bytes) -> bytes:
    if len(payload) > _MAX_FRAME:
        raise ProtocolError(f"frame payload {len(payload)} exceeds {_MAX_FRAME} bytes")
    return struct.pack(">I", len(payload)) + payload


def _floats_le_oracle(values) -> bytes:
    arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    if arr.ndim != 1:
        raise ProtocolError("parameter vector must be 1-d")
    return arr.astype("<f8").tobytes()


def pack_hello_oracle(worker_id, num_rows, num_features) -> bytes:
    return _frame_oracle(b"\x01" + struct.pack(_HELLO_FMT, worker_id, num_rows, num_features))


def pack_config_oracle(algo, round_count, seed, lambda_, lr) -> bytes:
    if algo not in _ALGO_CODES:
        raise ProtocolError(f"unknown algorithm {algo!r}")
    body = struct.pack(_CONFIG_HEAD, _ALGO_CODES[algo], round_count, seed)
    body += struct.pack("<dd", lambda_, lr)
    return _frame_oracle(b"\x02" + body)


def pack_params_oracle(round_, values) -> bytes:
    floats = _floats_le_oracle(values)
    return _frame_oracle(b"\x03" + struct.pack(_PARAMS_HEAD, round_, len(floats) // 8) + floats)


def pack_update_oracle(round_, sample_count, values) -> bytes:
    floats = _floats_le_oracle(values)
    body = struct.pack(_UPDATE_HEAD, round_, sample_count, len(floats) // 8) + floats
    return _frame_oracle(b"\x04" + body)


def pack_done_oracle() -> bytes:
    return _frame_oracle(b"\x05")


def pack_error_oracle(message) -> bytes:
    return _frame_oracle(b"\x00" + message.encode("utf-8"))


def _parse_floats_oracle(body, offset, count, wire_size, kind) -> Frame:
    expected = offset + 8 * count
    if len(body) != expected:
        raise ProtocolError(f"{kind} frame has {len(body)} body bytes, expected {expected}")
    values = np.frombuffer(body, dtype="<f8", count=count, offset=offset).astype(np.float64)
    return Frame(kind, {"count": count, "values": values}, wire_size)


def unpack_oracle(payload: bytes) -> Frame:
    if len(payload) > _MAX_FRAME:
        raise ProtocolError(f"frame payload {len(payload)} exceeds {_MAX_FRAME} bytes")
    if not payload:
        raise ProtocolError("empty frame payload")
    ftype, body = payload[0], payload[1:]
    wire = 4 + 1 + len(body)
    try:
        if ftype == 0x01:
            wid, rows, feats = struct.unpack(_HELLO_FMT, body)
            return Frame("hello", {"worker_id": wid, "num_rows": rows,
                                   "num_features": feats}, wire)
        if ftype == 0x02:
            head = struct.calcsize(_CONFIG_HEAD)
            algo, rounds, seed = struct.unpack(_CONFIG_HEAD, body[:head])
            if algo not in _ALGO_NAMES:
                raise ProtocolError(f"unknown algorithm code {algo}")
            if len(body) != head + 16:
                raise ProtocolError(f"config frame has {len(body)} body bytes")
            lambda_, lr = struct.unpack("<dd", body[head:])
            return Frame("config", {"algo": _ALGO_NAMES[algo], "round_count": rounds,
                                    "seed": seed, "lambda_": lambda_, "lr": lr}, wire)
        if ftype == 0x03:
            head = struct.calcsize(_PARAMS_HEAD)
            round_, count = struct.unpack(_PARAMS_HEAD, body[:head])
            frame = _parse_floats_oracle(body, head, count, wire, "params")
            frame.data["round"] = round_
            return frame
        if ftype == 0x04:
            head = struct.calcsize(_UPDATE_HEAD)
            round_, samples, count = struct.unpack(_UPDATE_HEAD, body[:head])
            frame = _parse_floats_oracle(body, head, count, wire, "update")
            frame.data["round"] = round_
            frame.data["sample_count"] = samples
            return frame
        if ftype == 0x05:
            if body:
                raise ProtocolError("done frame carries a body")
            return Frame("done", {}, wire)
        if ftype == 0x00:
            try:
                message = body.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ProtocolError(f"error frame is not utf-8: {exc}") from exc
            return Frame("error", {"message": message}, wire)
    except struct.error as exc:
        raise ProtocolError(f"truncated {_TYPE_NAMES.get(ftype, hex(ftype))} frame: {exc}") from exc
    raise ProtocolError(f"unknown frame type 0x{ftype:02x}")


# ---------------------------------------------------------------------------
# Model artifacts as they were built per model type, each with its own copy
# of the kind/num_features/config/seed header and an explicit seed override.

def _config_dict_oracle(config):
    if config is None:
        return None
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return dataclasses.asdict(config)
    return dict(config)


def _seed_of_oracle(config, seed):
    if seed is not None:
        return int(seed)
    cfg = _config_dict_oracle(config)
    if cfg and "seed" in cfg:
        return int(cfg["seed"])
    return None


def linear_artifact_oracle(model, config=None, seed=None) -> dict:
    return {
        "kind": model.kind,
        "num_features": int(model.num_features),
        "weights_b64": f64_to_b64(model.weights),
        "bias": float(model.bias),
        "config": _config_dict_oracle(config),
        "seed": _seed_of_oracle(config, seed),
    }


def mlp_artifact_oracle(model, config=None, seed=None) -> dict:
    blocks = []
    for block in model.blocks:
        blocks.append({name: f64_to_b64(block[name])
                       for name in ("w", "b", "gamma", "beta", "run_mean", "run_var")})
    layers = {
        "blocks": blocks,
        "out_w": f64_to_b64(model.out_w),
        "out_b": f64_to_b64(model.out_b),
        "bn_eps": model.bn_eps,
        "bn_momentum": model.bn_momentum,
    }
    return {
        "kind": "mlp",
        "num_features": int(model.arch.input_size),
        "arch": dataclasses.asdict(model.arch),
        "layers": layers,
        "config": _config_dict_oracle(config),
        "seed": _seed_of_oracle(config, seed),
    }


def gbt_artifact_oracle(model, config=None, seed=None) -> dict:
    return {
        "kind": "gbt",
        "num_features": int(model.num_features),
        "base_score": float(model.base_score),
        "trees": model.trees,
        "config": _config_dict_oracle(config),
        "seed": _seed_of_oracle(config, seed),
    }


def model_artifact_oracle(model, config=None, seed=None) -> dict:
    if isinstance(model, LinearModel):
        return linear_artifact_oracle(model, config, seed)
    if isinstance(model, MlpModel):
        return mlp_artifact_oracle(model, config, seed)
    if isinstance(model, GbtModel):
        return gbt_artifact_oracle(model, config, seed)
    raise DataFormatError(f"cannot serialize model of type {type(model).__name__}")


def manifest_json_oracle(manifest) -> str:
    """DatasetManifest.to_json with every field written out by name."""
    obj = {
        "name": manifest.name,
        "num_rows": manifest.num_rows,
        "num_features": manifest.num_features,
        "parts": list(manifest.parts),
        "label_kind": manifest.label_kind,
    }
    if manifest.seed is not None:
        obj["seed"] = manifest.seed
    return json.dumps(obj, indent=2)


# ---------------------------------------------------------------------------
# MLP training as it was with a mode flag: one cached forward for both
# modes, a frozen-BN branch, and nested Adam state. The model's mode
# attribute is gone, so these take the mode as an argument and never
# check it on the model.

def mlp_forward_cache_oracle(model, batch, mode, rng, freeze_bn, update_running=False):
    X = np.asarray(batch, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.arch.input_size:
        raise DataFormatError(
            f"batch must be 2-d with {model.arch.input_size} columns"
        )
    B = X.shape[0]
    if B < 1:
        raise DataFormatError("batch must contain at least one row")
    if mode == "train" and B < 2 and not freeze_bn:
        raise DataFormatError("train-mode BN needs a batch of >= 2 rows")
    p = model.arch.dropout_p
    if mode == "train" and p > 0 and rng is None:
        raise ConfigError("train-mode forward with dropout needs an rng")
    caches = []
    h = X
    for block in model.blocks:
        z = h @ block["w"] + block["b"]
        if mode == "train" and not freeze_bn:
            mu = z.mean(axis=0)
            var = z.var(axis=0)  # biased, used for normalization
            if update_running:
                m = model.bn_momentum
                block["run_mean"] = (1 - m) * block["run_mean"] + m * mu
                unbiased = var * B / (B - 1)
                block["run_var"] = (1 - m) * block["run_var"] + m * unbiased
        else:
            mu = block["run_mean"]
            var = block["run_var"]
        inv_std = 1.0 / np.sqrt(var + model.bn_eps)
        x_hat = (z - mu) * inv_std
        bn_out = block["gamma"] * x_hat + block["beta"]
        relu = np.maximum(bn_out, 0.0)
        if mode == "train" and p > 0:
            mask = (rng.random(relu.shape) >= p) / (1.0 - p)
            out = relu * mask
        else:
            mask = None
            out = relu
        caches.append({
            "x": h, "inv_std": inv_std, "x_hat": x_hat,
            "bn_out": bn_out, "mask": mask, "batch_stats": mode == "train" and not freeze_bn,
        })
        h = out
    logits = h @ model.out_w + model.out_b
    return logits, h, caches


def mlp_weighted_ce_oracle(logits, labels, class_weights):
    """The weighted CE and its logit gradient through an explicit one-hot."""
    probs = mlp.softmax(logits)
    B = logits.shape[0]
    picked = probs[np.arange(B), labels]
    ce = -np.log(np.maximum(picked, 1e-300))
    if class_weights is None:
        c = np.ones(B)
    else:
        c = np.asarray(class_weights, dtype=np.float64)[labels]
    loss = float(np.mean(c * ce))
    onehot = np.zeros_like(probs)
    onehot[np.arange(B), labels] = 1.0
    dlogits = (c[:, None] * (probs - onehot)) / B
    return loss, dlogits


def mlp_eval_forward_oracle(model, batch):
    return mlp_forward_cache_oracle(model, batch, "eval", None, False)[0]


def mlp_loss_and_gradients_oracle(model, batch, labels, class_weights=None, rng=None):
    y = mlp._check_labels(labels, model.arch.output_size)
    logits, hidden, caches = mlp_forward_cache_oracle(model, batch, "train", rng, False,
                                                      update_running=True)
    loss, dlogits = mlp_weighted_ce_oracle(logits, y, class_weights)
    grads = {"out_w": hidden.T @ dlogits, "out_b": dlogits.sum(axis=0), "blocks": []}
    dh = dlogits @ model.out_w.T
    B = dlogits.shape[0]
    for block, cache in zip(reversed(model.blocks), reversed(caches)):
        if cache["mask"] is not None:
            dh = dh * cache["mask"]
        d_bn = dh * (cache["bn_out"] > 0)
        dgamma = (d_bn * cache["x_hat"]).sum(axis=0)
        dbeta = d_bn.sum(axis=0)
        dx_hat = d_bn * block["gamma"]
        if cache["batch_stats"]:
            dz = cache["inv_std"] / B * (
                B * dx_hat
                - dx_hat.sum(axis=0)
                - cache["x_hat"] * (dx_hat * cache["x_hat"]).sum(axis=0)
            )
        else:
            dz = dx_hat * cache["inv_std"]
        grads["blocks"].append({
            "w": cache["x"].T @ dz,
            "b": dz.sum(axis=0),
            "gamma": dgamma,
            "beta": dbeta,
        })
        dh = dz @ block["w"].T
    grads["blocks"].reverse()
    return loss, grads


def _adam_step_oracle(param, grad, state, cfg, t):
    """One Adam update of one parameter array, as mlp.train made it before
    it updated one flat parameter vector."""
    state["m"] = cfg.adam_beta1 * state["m"] + (1 - cfg.adam_beta1) * grad
    state["v"] = cfg.adam_beta2 * state["v"] + (1 - cfg.adam_beta2) * grad**2
    m_hat = state["m"] / (1 - cfg.adam_beta1**t)
    v_hat = state["v"] / (1 - cfg.adam_beta2**t)
    param -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


def mlp_train_oracle(ds, arch, cfg):
    """mlp.train with nested per-parameter Adam state. Returns (model, curve)."""
    y = mlp._check_labels(ds.labels, arch.output_size)
    rng = np.random.default_rng(cfg.seed)
    model = mlp.init_model(arch, rng, cfg.bn_eps, cfg.bn_momentum)
    n = ds.num_rows
    perm = rng.permutation(n)
    val_count = max(1, n // 10)
    val_idx, train_idx = perm[:val_count], perm[val_count:]
    X_train, y_train = ds.features[train_idx], y[train_idx]
    X_val, y_val = ds.features[val_idx], y[val_idx]

    adam = {"out_w": None, "out_b": None, "blocks": []}
    adam["out_w"] = {"m": np.zeros_like(model.out_w), "v": np.zeros_like(model.out_w)}
    adam["out_b"] = {"m": np.zeros_like(model.out_b), "v": np.zeros_like(model.out_b)}
    for block in model.blocks:
        adam["blocks"].append({
            name: {"m": np.zeros_like(block[name]), "v": np.zeros_like(block[name])}
            for name in ("w", "b", "gamma", "beta")
        })

    curve = []
    t = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(train_idx.size)
        epoch_loss = 0.0
        epoch_rows = 0
        for start in range(0, order.size, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            if idx.size < 2:
                continue
            loss, grads = mlp_loss_and_gradients_oracle(
                model, X_train[idx], y_train[idx], cfg.class_weights, rng
            )
            if cfg.weight_decay > 0:
                grads["out_w"] += cfg.weight_decay * model.out_w
                for block, g in zip(model.blocks, grads["blocks"]):
                    g["w"] += cfg.weight_decay * block["w"]
            t += 1
            _adam_step_oracle(model.out_w, grads["out_w"], adam["out_w"], cfg, t)
            _adam_step_oracle(model.out_b, grads["out_b"], adam["out_b"], cfg, t)
            for block, g, state in zip(model.blocks, grads["blocks"], adam["blocks"]):
                for name in ("w", "b", "gamma", "beta"):
                    _adam_step_oracle(block[name], g[name], state[name], cfg, t)
            epoch_loss += loss * idx.size
            epoch_rows += idx.size
        val_logits = mlp_eval_forward_oracle(model, X_val)
        val_loss, _ = mlp_weighted_ce_oracle(val_logits, y_val, cfg.class_weights)
        curve.append((epoch_loss / epoch_rows, val_loss))
    return model, curve
