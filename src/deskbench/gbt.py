"""Gradient-boosted regression trees with regularized split gain.

Squared-error boosting with unit hessians: per round the gradient is the
residual pred - y, trees are grown depth-first by exact greedy search over
every (feature, midpoint-of-consecutive-distinct-values) split, and the
shrinkage factor eta is folded into the stored leaf weights so prediction
is just base_score plus leaf lookups.

Each node searches in one pass over array operations: it drops the columns
that are constant on its rows, sorts the rest with one stable axis-0 argsort,
takes one axis-0 cumsum of the gradients and scores every (boundary, column)
pair. Live columns go through in blocks of _COLUMN_BLOCK, which bounds the
temporaries of a wide, dense node. Ties go to the highest gain, then the
lowest feature index, then the lowest threshold.

Trees are nested dicts: internal {"f": int, "t": float, "l": node,
"r": node}, leaf {"w": float}. Ties at a threshold go left (x <= t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError


@dataclass(frozen=True)
class GbtConfig:
    max_depth: int = 10
    eta: float = 0.05
    num_round: int = 300
    min_child_weight: float = 5.0
    lambda_: float = 1.5
    gamma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if not (0.0 < self.eta <= 1.0):
            raise ConfigError("eta must be in (0, 1]")
        if self.num_round < 1:
            raise ConfigError("num_round must be >= 1")
        if self.min_child_weight < 0:
            raise ConfigError("min_child_weight must be >= 0")
        if self.lambda_ < 0:
            raise ConfigError("lambda must be >= 0")
        if self.gamma < 0:
            raise ConfigError("gamma must be >= 0")


@dataclass(frozen=True)
class GbtModel:
    base_score: float
    trees: list
    num_features: int


# Columns handled together by the live-column scan and the split search; it
# bounds the (rows x block) temporaries of a wide, dense node.
_COLUMN_BLOCK = 64


def _live_columns(features, rows):
    """Indices of the columns that are not constant on rows (-0.0 == 0.0)."""
    live = np.zeros(features.shape[1], dtype=bool)
    for start in range(0, live.size, _COLUMN_BLOCK):
        block = features[rows, start:start + _COLUMN_BLOCK]
        live[start:start + _COLUMN_BLOCK] = block.min(axis=0) != block.max(axis=0)
    return np.flatnonzero(live)


def _best_split(features, g, rows, cfg):
    """Exact greedy search at one node, over every column that varies there.

    Returns (gain, feature, threshold, left_rows, right_rows) or None.
    Ties broken by (max gain, min feature index, min threshold): argmax
    takes the first column, then the first boundary, holding a block's
    maximum, and a later block wins only on a strictly greater gain.
    """
    g_node = g[rows]
    G = float(g_node.sum())
    H = float(rows.size)
    lam = cfg.lambda_
    parent_term = G * G / (H + lam)
    h_left = np.arange(1, rows.size, dtype=np.float64)[:, None]
    h_right = H - h_left
    weight_ok = (h_left >= cfg.min_child_weight) & (h_right >= cfg.min_child_weight)
    live = _live_columns(features, rows)
    best = None
    for start in range(0, live.size, _COLUMN_BLOCK):
        cols = live[start:start + _COLUMN_BLOCK]
        values = features[np.ix_(rows, cols)]
        order = np.argsort(values, axis=0, kind="mergesort")
        sorted_vals = np.take_along_axis(values, order, axis=0)
        g_left = np.cumsum(g_node[order], axis=0)[:-1]
        g_right = G - g_left
        gains = 0.5 * (
            g_left**2 / (h_left + lam)
            + g_right**2 / (h_right + lam)
            - parent_term
        ) - cfg.gamma
        ok = (sorted_vals[:-1] != sorted_vals[1:]) & (gains > 0.0) & weight_ok
        if not ok.any():
            continue
        gains = np.where(ok, gains, -np.inf)
        c = int(np.argmax(gains.max(axis=0)))
        b = int(np.argmax(gains[:, c]))
        if best is not None and gains[b, c] <= best[0]:
            continue
        lo, hi = sorted_vals[b, c], sorted_vals[b + 1, c]
        threshold = lo + (hi - lo) / 2.0
        if threshold >= hi:  # midpoint rounded up to the right value
            threshold = lo
        left = rows[order[: b + 1, c]]
        right = rows[order[b + 1:, c]]
        best = (float(gains[b, c]), int(cols[c]), float(threshold), left, right)
    return best


def _grow(features, g, rows, depth, cfg, deltas):
    G = float(g[rows].sum())
    H = float(rows.size)
    if depth < cfg.max_depth:
        split = _best_split(features, g, rows, cfg)
        if split is not None:
            _, f, t, left, right = split
            return {
                "f": f,
                "t": t,
                "l": _grow(features, g, left, depth + 1, cfg, deltas),
                "r": _grow(features, g, right, depth + 1, cfg, deltas),
            }
    weight = cfg.eta * (-G / (H + cfg.lambda_))
    deltas[rows] = weight
    return {"w": weight}


def _check_matrix(features) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise DataFormatError("features must be a 2-d matrix")
    if not np.isfinite(X).all():
        raise DataFormatError("features contain NaN or infinity")
    return X


def fit(features, targets, cfg: GbtConfig) -> GbtModel:
    X = _check_matrix(features)
    y = np.asarray(targets, dtype=np.float64)
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise DataFormatError("targets must be a vector matching the feature rows")
    if X.shape[0] < 2:
        raise DataFormatError("fit requires at least 2 rows")
    if not np.isfinite(y).all():
        raise DataFormatError("targets contain NaN or infinity")
    base = float(y.mean())
    preds = np.full(y.shape[0], base, dtype=np.float64)
    all_rows = np.arange(y.shape[0])
    trees = []
    for _ in range(cfg.num_round):
        g = preds - y
        deltas = np.zeros_like(preds)
        trees.append(_grow(X, g, all_rows, 0, cfg, deltas))
        preds += deltas
    return GbtModel(base_score=base, trees=trees, num_features=X.shape[1])


def _apply_tree(node, X, rows, out):
    if "w" in node:
        out[rows] += node["w"]
        return
    go_left = X[rows, node["f"]] <= node["t"]
    _apply_tree(node["l"], X, rows[go_left], out)
    _apply_tree(node["r"], X, rows[~go_left], out)


def predict(model: GbtModel, features) -> np.ndarray:
    X = _check_matrix(features)
    if X.shape[1] != model.num_features:
        raise DataFormatError(
            f"model expects {model.num_features} features, got {X.shape[1]}"
        )
    out = np.full(X.shape[0], model.base_score, dtype=np.float64)
    rows = np.arange(X.shape[0])
    for tree in model.trees:
        _apply_tree(tree, X, rows, out)
    return out


class GbtPredictor:
    """Adapter exposing the regression trainer interface."""

    def __init__(self, model: GbtModel):
        self.model = model

    def predict(self, features) -> np.ndarray:
        return predict(self.model, features)


def make_trainer(cfg: GbtConfig):
    def trainer(train_ds) -> GbtPredictor:
        return GbtPredictor(fit(train_ds.features, train_ds.labels, cfg))

    return trainer
