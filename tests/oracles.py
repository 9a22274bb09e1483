"""Independent reference implementations used only by the test suite."""

import numpy as np


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
