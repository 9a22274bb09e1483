"""Independent reference implementations used only by the test suite."""

import re

import numpy as np

from deskbench import prep, textfeat
from deskbench.dataio import LABEL_MAPS, DenseDataset, _parse_label, _text_lines
from deskbench.errors import ConfigError, DataFormatError
from deskbench.evaluation import _as_int_labels
from deskbench.linmodels import sigmoid
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
    for line_no, line in enumerate(_text_lines(stream), start=1):
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
            residual = c[idx] * (sigmoid(z) - y[idx])
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
            residual = sigmoid(z) - y[idx]
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


def rebalance_oracle(texts, labels, target_size, factor, num_rings, seed, dim, min_doc_freq):
    """The balance loop as `deskbench balance` wrote it inline: vectorize the
    corpus, then per class (largest first) ring-undersample, augment or keep."""
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
            kept = prep.ring_undersample(dense, cfg)
            out_rows.extend((texts[idx[j]], label) for j in kept)
        elif len(idx) < target_size and factor > 1:
            result = prep.augment([(texts[i], label) for i in idx], augmenter, factor, seed)
            failures += result.failures
            out_rows.extend(result.items)
        else:
            out_rows.extend((texts[i], label) for i in idx)
    return out_rows, failures


def feature_matrix_oracle(frame, text_columns, numeric_columns, stoplist, dim, min_doc_freq):
    """The feature matrix as `deskbench pipeline` built it inline: one
    assembled sparse row per document, densified into a preallocated matrix."""
    texts = textfeat.all_text_column(frame, text_columns)
    vectors, idf_model = textfeat.vectorize_corpus(texts, stoplist, dim, min_doc_freq)
    numeric_columns = list(numeric_columns)
    numeric_values = {name: frame.column(name) for name in numeric_columns}
    features = np.zeros((frame.num_rows, dim + len(numeric_columns)))
    for i, vec in enumerate(vectors):
        numerics = [(name, float(numeric_values[name][i] or 0.0)) for name in numeric_columns]
        features[i] = textfeat.assemble(vec, numerics).to_dense()
    return features, idf_model
