"""Gradient-boosted regression trees with regularized split gain.

Squared-error boosting with unit hessians: per round the gradient is the
residual pred - y, trees are grown depth-first by exact greedy search over
every (feature, midpoint-of-consecutive-distinct-values) split, and the
shrinkage factor eta is folded into the stored leaf weights so prediction
is just base_score plus leaf lookups.

A fit ranks each column that varies over its rows once, in the smallest
unsigned dtype that holds n - 1: a value's rank is its index among the
column's distinct values (-0.0 == 0.0). That stable sort is the root's row
order, so the fit holds it and the root's boundaries for every round. Other
nodes gather their rows' ranks in blocks of max(_COLUMN_BLOCK, _BLOCK_CELLS //
rows) columns and stable-sort each column. Every node cumsums the gradients
in that order.
A split can go only at a boundary: the sorted rank changes there and both
children are heavy enough. A block with few boundaries (few-valued columns)
is scored at them alone, a block with many (continuous columns) at every
position with the rest masked off; both paths evaluate one gain expression
on the same operands, so the gains have the same bits. Ranks tie where
values tie, so the order, gains and thresholds (read from the features at
the boundary rows) are those of a stable sort of the values. Ties go to the
highest gain, then the lowest feature index, then the lowest threshold.

Trees are nested dicts: internal {"f": int, "t": float, "l": node,
"r": node}, leaf {"w": float}. Ties at a threshold go left (x <= t).
"""

from __future__ import annotations

import math
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
        # the chained comparisons also reject NaN and infinity
        if not 0 <= self.min_child_weight < math.inf:
            raise ConfigError("min_child_weight must be finite and >= 0")
        if not 0 <= self.lambda_ < math.inf:
            raise ConfigError("lambda must be finite and >= 0")
        if not 0 <= self.gamma < math.inf:
            raise ConfigError("gamma must be finite and >= 0")


@dataclass(frozen=True)
class GbtModel:
    base_score: float
    trees: list
    num_features: int


# _rank_columns ranks _COLUMN_BLOCK columns at a time; a node searches
# max(_COLUMN_BLOCK, _BLOCK_CELLS // rows): few per-call costs on a small
# node, bounded temporaries on a large one. Of 2**12 to 2**16 cells, 2**14
# fitted 640 x 200 fastest.
_COLUMN_BLOCK = 64
_BLOCK_CELLS = 1 << 14
# A block whose boundaries are at most this share of its positions is scored
# at the boundaries alone. Gathering them costs more than scoring every
# position from a share of about 0.35 (400 rows x 27 columns) to 0.5 (2000 x
# 64); on all-distinct columns it made the scoring 2-5 times slower.
_SPARSE_BOUNDARY_SHARE = 0.4


def _rank_columns(X):
    """(cand, ranks, order): the columns that vary over X's rows, their ranks
    and each column's stable row order, both one row per column."""
    cand = np.flatnonzero(X.min(axis=0) != X.max(axis=0))
    ranks = np.empty((cand.size, X.shape[0]), dtype=np.min_scalar_type(X.shape[0] - 1))
    order = np.empty_like(ranks)
    for start in range(0, cand.size, _COLUMN_BLOCK):
        block = slice(start, start + _COLUMN_BLOCK)
        values = np.ascontiguousarray(X[:, cand[block]].T)
        order[block] = np.argsort(values, axis=1, kind="stable")
        sorted_vals = np.take_along_axis(values, order[block], axis=1)
        steps = np.zeros(values.shape, dtype=ranks.dtype)
        steps[:, 1:] = sorted_vals[:, 1:] != sorted_vals[:, :-1]
        np.put_along_axis(ranks[block], order[block],
                          np.cumsum(steps, axis=1, dtype=ranks.dtype), axis=1)
    return cand, ranks, order


def _search_blocks(ranks, rows, cfg, order=None):
    """Yield (first column, order, boundary, its count) per column block of a
    node. order[c] lists the node's rows (as indices into rows) in stable rank
    order; boundary[c, b] says a split can go after position b. The root
    passes _rank_columns' order."""
    h_left = np.arange(1, rows.size)
    weight_ok = np.minimum(h_left, rows.size - h_left) >= cfg.min_child_weight
    width = max(_COLUMN_BLOCK, _BLOCK_CELLS // rows.size)
    # Distinct keys (rank above position) sort as the ranks sort stably. Under
    # 32 bits numpy pages in more sort code (rating_gbt's RSS: +0.7 MB).
    shift = (rows.size - 1).bit_length()
    dtype = np.promote_types(np.uint32, np.min_scalar_type((ranks.shape[1] << shift) - 1))
    for start in range(0, ranks.shape[0], width):
        block = slice(start, start + width)
        if order is None:
            keys = ranks[block, rows].astype(dtype) << shift | np.arange(rows.size, dtype=dtype)
            keys.sort(axis=1)
            block_order = (keys & ((1 << shift) - 1)).astype(np.intp)
            sorted_ranks = keys >> shift
        else:
            block_order = order[block]
            sorted_ranks = np.take_along_axis(ranks[block], block_order, axis=1)
        boundary = (sorted_ranks[:, :-1] != sorted_ranks[:, 1:]) & weight_ok
        yield start, block_order, boundary, np.count_nonzero(boundary)


def _best_split(X, cand, blocks, g_node, rows, cfg, G):
    """Exact greedy search at one node over its _search_blocks: (gain,
    feature, threshold, left_rows, right_rows) or None. g_node is g[rows] and
    G its sum as a float. A later block wins only on a strictly greater gain."""
    H = float(rows.size)
    parent_term = G * G / (H + cfg.lambda_)
    h_left = np.arange(1, rows.size, dtype=np.float64)
    best = None
    for start, order, boundary, count in blocks:
        if count == 0:
            continue
        g_sum = np.cumsum(g_node[order], axis=1)
        if count <= _SPARSE_BOUNDARY_SHARE * boundary.size:
            # boundary p = c * (n - 1) + b in column-major order is g_sum's c * n + b
            pos = np.flatnonzero(boundary)
            g_left = g_sum.ravel()[pos + pos // (rows.size - 1)]
            h = h_left[pos % (rows.size - 1)]
        else:
            pos, g_left, h = None, g_sum[:, :-1], h_left
        gains = 0.5 * (
            g_left**2 / (h + cfg.lambda_)
            + (G - g_left)**2 / ((H - h) + cfg.lambda_)
            - parent_term
        ) - cfg.gamma
        if pos is None:
            gains = np.where(boundary, gains, -np.inf).ravel()
        # The first maximum in column-major order. argmax stops at a NaN gain,
        # but one arises only where G * G overflows or g is not finite, and
        # then no gain is positive.
        i = int(np.argmax(gains))
        if not gains[i] > (0.0 if best is None else best[0]):
            continue
        c, b = divmod(i if pos is None else int(pos[i]), rows.size - 1)
        f = int(cand[start + c])
        lo, hi = X[rows[order[c, b]], f], X[rows[order[c, b + 1]], f]
        threshold = lo + (hi - lo) / 2.0
        if threshold >= hi:  # midpoint rounded up to the right value
            threshold = lo
        best = (float(gains[i]), f, float(threshold),
                rows[order[c, :b + 1]], rows[order[c, b + 1:]])
    return best


def _grow(X, cand, ranks, g, rows, depth, cfg, deltas, blocks=None):
    g_node = g[rows]
    G = float(g_node.sum())
    H = float(rows.size)
    if depth < cfg.max_depth:
        if blocks is None:
            blocks = _search_blocks(ranks, rows, cfg)
        split = _best_split(X, cand, blocks, g_node, rows, cfg, G)
        if split is not None:
            _, f, t, left, right = split
            return {"f": f, "t": t,
                    "l": _grow(X, cand, ranks, g, left, depth + 1, cfg, deltas),
                    "r": _grow(X, cand, ranks, g, right, depth + 1, cfg, deltas)}
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
    cand, ranks, order = _rank_columns(X)
    root = list(_search_blocks(ranks, all_rows, cfg, order))
    trees = []
    for _ in range(cfg.num_round):
        g = preds - y
        deltas = np.zeros_like(preds)
        trees.append(_grow(X, cand, ranks, g, all_rows, 0, cfg, deltas, root))
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
