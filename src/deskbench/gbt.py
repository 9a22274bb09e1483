"""Gradient-boosted regression trees with regularized split gain.

Squared-error boosting with unit hessians: per round the gradient is the
residual pred - y, trees are grown depth-first by exact greedy search over
every (feature, midpoint-of-consecutive-distinct-values) split, and the
shrinkage factor eta is folded into the stored leaf weights so prediction
is just base_score plus leaf lookups.

Each column that varies over a matrix is ranked once, in the smallest
unsigned dtype that holds n - 1: a value's rank is its index among the
column's distinct values (-0.0 == 0.0). make_trainer's trainer keeps that
ranking for every fold of the matrix, whose fit reads its rows in place.
Every node gathers its rows' ranks in blocks of max(_COLUMN_BLOCK,
_BLOCK_CELLS // rows) columns, stable-sorts each column and cumsums the
gradients in that order; the root is sorted once per fit.
A split can go only at a boundary: the sorted rank changes there and both
children are heavy enough. A block with few boundaries (few-valued columns)
is scored at them alone, a block with many (continuous columns) at every
position with the rest masked off; both paths evaluate one gain expression
on the same operands, so the gains have the same bits. Ranks tie where
values tie, so the order, gains and thresholds (read from the features at
the boundary rows) are those of a stable sort of the fit's values. Ties go
to the highest gain, then the lowest feature index, then the lowest
threshold.

Trees are nested dicts: internal {"f": int, "t": float, "l": node,
"r": node}, leaf {"w": float}. Ties at a threshold go left (x <= t).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .dataio import matrix_rows
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
_PREDICT_CELLS = 1 << 16  # the most (tree, row) pairs predict moves at once


def _rank_columns(X):
    """(cand, ranks): the columns that vary over X's rows and their ranks, one
    row per column."""
    cand = np.flatnonzero(X.min(axis=0) != X.max(axis=0))
    ranks = np.empty((cand.size, X.shape[0]), dtype=np.min_scalar_type(X.shape[0] - 1))
    for start in range(0, cand.size, _COLUMN_BLOCK):
        block = slice(start, start + _COLUMN_BLOCK)
        values = np.ascontiguousarray(X[:, cand[block]].T)
        # an intp order held through the block raised the tracemalloc peak 14%
        order = np.argsort(values, axis=1, kind="stable").astype(ranks.dtype)
        sorted_vals = np.take_along_axis(values, order, axis=1)
        steps = np.zeros(values.shape, dtype=ranks.dtype)
        steps[:, 1:] = sorted_vals[:, 1:] != sorted_vals[:, :-1]
        np.put_along_axis(ranks[block], order,
                          np.cumsum(steps, axis=1, dtype=ranks.dtype), axis=1)
    return cand, ranks


def _search_blocks(ranks, rows, cfg):
    """Yield (first column, order, boundary, its count) per column block of a
    node, or nothing if no split leaves both children heavy enough. order[c]
    lists the node's rows (as indices into rows) in stable rank order;
    boundary[c, b] says a split can go after position b."""
    n = rows.size
    # a split after position b leaves b + 1 rows left and n - 1 - b right:
    # both are at least m when b is in [m - 1, n - 1 - m]
    m = max(math.ceil(cfg.min_child_weight), 1)
    if 2 * m > n:
        return
    width = max(_COLUMN_BLOCK, _BLOCK_CELLS // n)
    # Distinct keys (rank above position) sort as the ranks sort stably. Under
    # 32 bits numpy pages in more sort code (rating_gbt's RSS: +0.7 MB).
    shift = (n - 1).bit_length()
    dtype = np.promote_types(np.uint32, np.min_scalar_type((ranks.shape[1] << shift) - 1))
    for start in range(0, ranks.shape[0], width):
        # built and masked in place: the root's tracemalloc peak fell by 9%
        keys = ranks[start:start + width, rows].astype(dtype)
        keys <<= shift
        keys |= np.arange(n, dtype=dtype)
        keys.sort(axis=1)
        sorted_ranks = keys >> shift
        # clearing outside the window beat a np.zeros mask (3200-row fits: -5%)
        boundary = sorted_ranks[:, :-1] != sorted_ranks[:, 1:]
        boundary[:, :m - 1] = boundary[:, n - m:] = False
        keys &= (1 << shift) - 1  # the positions, in stable rank order
        yield start, keys.astype(np.intp), boundary, np.count_nonzero(boundary)


def _best_split(X, cand, blocks, g_node, rows, cfg, G, steps):
    """Exact greedy search at one node over its _search_blocks: (gain,
    feature, threshold, left_rows, right_rows) or None. g_node is g[rows], G
    its sum as a float and steps the fit's float arange(1, rows). A later
    block wins only on a strictly greater gain."""
    H = float(rows.size)
    parent_term = G * G / (H + cfg.lambda_)
    h_left = steps[:rows.size - 1]
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


def _grow(X, cand, ranks, steps, g, rows, depth, cfg, preds, blocks=None):
    g_node = g[rows]
    G = float(g_node.sum())
    H = float(rows.size)
    if depth < cfg.max_depth:
        if blocks is None:
            blocks = _search_blocks(ranks, rows, cfg)
        split = _best_split(X, cand, blocks, g_node, rows, cfg, G, steps)
        if split is not None:
            _, f, t, left, right = split
            return {"f": f, "t": t,
                    "l": _grow(X, cand, ranks, steps, g, left, depth + 1, cfg, preds),
                    "r": _grow(X, cand, ranks, steps, g, right, depth + 1, cfg, preds)}
    weight = cfg.eta * (-G / (H + cfg.lambda_))
    preds[rows] += weight
    return {"w": weight}


def _check_matrix(features) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise DataFormatError("features must be a 2-d matrix")
    if not np.isfinite(X).all():
        raise DataFormatError("features contain NaN or infinity")
    return X


# make_trainer's trainer passes fit the row numbers rows of the matrix base,
# read in place, and ranked, [] or [a matrix, it checked, its _rank_columns]
_Fold = namedtuple("_Fold", "base rows ranked")


def fit(features, targets, cfg: GbtConfig) -> GbtModel:
    """Boost cfg.num_round trees on a matrix and its targets, or on a _Fold
    and the targets of its rows."""
    fold = features if isinstance(features, _Fold) else _Fold(features, None, [])
    fresh = not fold.ranked or fold.ranked[0] is not fold.base
    X = _check_matrix(fold.base) if fresh else fold.ranked[1]
    rows = np.arange(X.shape[0]) if fold.rows is None else fold.rows
    y = np.asarray(targets, dtype=np.float64)
    if y.ndim != 1 or y.shape[0] != rows.size:
        raise DataFormatError("targets must be a vector matching the feature rows")
    if rows.size < 2:
        raise DataFormatError("fit requires at least 2 rows")
    if not np.isfinite(y).all():
        raise DataFormatError("targets contain NaN or infinity")
    if fresh:
        fold.ranked[:] = fold.base, X, _rank_columns(X)
    cand, ranks = fold.ranked[2]
    base = float(y.mean())
    targets_at = np.zeros(X.shape[0])  # by row number, as preds and g
    targets_at[rows] = y
    preds = np.full(X.shape[0], base, dtype=np.float64)
    steps = np.arange(1, rows.size, dtype=np.float64)
    # every round reuses the root's blocks, their orders in ranks' narrower dtype
    root = [(start, order.astype(ranks.dtype), boundary, count)
            for start, order, boundary, count in _search_blocks(ranks, rows, cfg)]
    trees = []
    for _ in range(cfg.num_round):
        g = preds - targets_at  # taken before this round's leaves add to preds
        trees.append(_grow(X, cand, ranks, steps, g, rows, 0, cfg, preds, root))
    return GbtModel(base_score=base, trees=trees, num_features=X.shape[1])


def _flatten(trees):
    """The trees as arrays over their nodes in level order, tree t's root
    being node t: feature, threshold, leaf weight and children, so that a row
    at node i goes on to children[2 * i + (x <= t)] (a leaf is both its
    children); then the number of levels below the roots."""
    nodes, children, level, depth = [], [], list(trees), -1
    while level:
        below = len(nodes) + len(level)
        for i, node in enumerate(level, len(nodes)):
            if "w" in node:
                children += (i, i)
            else:
                children += (below, below + 1)
                below += 2
        nodes += level
        level = [child for node in level if "w" not in node for child in (node["r"], node["l"])]
        depth += 1
    feature, threshold, weight = ([node.get(key, 0) for node in nodes] for key in "ftw")
    return (np.array(feature, dtype=np.intp), np.array(threshold, dtype=np.float64),
            np.array(weight, dtype=np.float64), np.array(children, dtype=np.intp), depth)


def predict(model: GbtModel, features) -> np.ndarray:
    X = _check_matrix(features)
    if X.shape[1] != model.num_features:
        raise DataFormatError(
            f"model expects {model.num_features} features, got {X.shape[1]}"
        )
    out = np.full(X.shape[0], model.base_score, dtype=np.float64)
    if not model.trees:
        return out
    feature, threshold, weight, children, depth = _flatten(model.trees)
    chunk = max(1, _PREDICT_CELLS // len(model.trees))
    for lo in range(0, X.shape[0], chunk):
        part = X[lo:lo + chunk]
        cells, starts = part.ravel(), np.arange(part.shape[0]) * X.shape[1]
        node = np.repeat(np.arange(len(model.trees))[:, None], part.shape[0], axis=1)
        for _ in range(depth):
            node = children[2 * node + (cells[starts + feature[node]] <= threshold[node])]
        for leaves in weight[node]:  # tree by tree, the order of each row's sum
            out[lo:lo + chunk] += leaves
    return out


class GbtPredictor:
    """Adapter exposing the regression trainer interface."""

    def __init__(self, model: GbtModel):
        self.model = model

    def predict(self, features) -> np.ndarray:
        return predict(self.model, features)


def make_trainer(cfg: GbtConfig):
    """A trainer that reads its rows of a matrix in place (matrix_rows). It
    checks and ranks the matrix object once and reuses that for later fits
    on it, in forked fold children too, so the matrix must not change in
    between; given another matrix, it ranks that one."""
    ranked = []

    def trainer(train_ds) -> GbtPredictor:
        base, rows = matrix_rows(train_ds)
        return GbtPredictor(fit(_Fold(base, rows, ranked), train_ds.labels, cfg))

    return trainer
