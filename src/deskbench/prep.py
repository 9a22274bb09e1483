"""Dataset preparation: imputation, dedup, ring undersampling, augmentation.

Covers the cleanup stages that run before feature extraction: filling
missing numeric cells from categorical context, removing spam/duplicate
text rows, distance-ring undersampling of majority classes, paraphrase
augmentation of minority classes, the ``rebalance`` flow that combines
those two, the ``pipeline`` flow from a raw table to a dense dataset, and
small reporting helpers.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import dataio, textfeat
from .dataio import NUMBER, TEXT, DenseDataset, TabularFrame
from .errors import ConfigError, DataFormatError

# Context columns tried, in order, when filling a missing numeric cell.
DEFAULT_CONTEXT_COLUMNS = ("director", "writer", "genre", "actors")


# ---------------------------------------------------------------------------
# contextual imputation


@dataclass
class ImputePlan:
    """Fitted lookup tables for contextual mean imputation.

    group_means maps context column name -> {cell value -> mean target}.
    Means are computed only over rows whose target is present.
    """

    target_column: str
    context_columns: tuple
    group_means: dict
    global_mean: float


def _split_values(cell):
    """Split a multi-valued text cell on commas; empty parts are dropped."""
    if cell is None:
        return []
    parts = [p.strip() for p in str(cell).split(",")]
    return [p for p in parts if p]


def impute_fit(frame: TabularFrame, target_column: str,
               context_columns=DEFAULT_CONTEXT_COLUMNS) -> ImputePlan:
    """Learn per-context-value target means plus a global fallback mean.

    Only rows with a present target contribute, and a present target must
    be finite. A multi-valued context cell ("Drama, War") credits the row's
    target to each listed value.
    """
    if frame.kind_of(target_column) != NUMBER:
        raise DataFormatError(f"target column {target_column!r} is not numeric")
    context_columns = tuple(context_columns)
    for name in context_columns:
        if frame.kind_of(name) != TEXT:
            raise DataFormatError(f"context column {name!r} is not text")

    targets = frame.column(target_column)
    present = [(i, float(v)) for i, v in enumerate(targets) if v is not None]
    for i, v in present:
        if not math.isfinite(v):
            raise DataFormatError(f"row {i}, column {target_column!r}: non-finite {v!r}")
    if not present:
        raise DataFormatError(f"column {target_column!r} has no present values to fit on")
    global_mean = float(np.mean([v for _, v in present]))

    group_means = {}
    for name in context_columns:
        col = frame.column(name)
        sums, counts = {}, {}
        for i, target in present:
            for value in _split_values(col[i]):
                sums[value] = sums.get(value, 0.0) + target
                counts[value] = counts.get(value, 0) + 1
        group_means[name] = {v: sums[v] / counts[v] for v in sums}
    return ImputePlan(target_column, context_columns, group_means, global_mean)


def impute_apply(frame: TabularFrame, plan: ImputePlan) -> TabularFrame:
    """Fill missing targets from the first context level with a known value.

    For each missing target the context columns are tried in plan order.
    A level matches when at least one of the cell's comma-separated
    values has a fitted mean; the fill is the mean of those available
    per-value means. If no level matches, the global mean is used.
    Present targets are returned untouched.
    """
    targets = list(frame.column(plan.target_column))
    context = {name: frame.column(name) for name in plan.context_columns}
    for i, value in enumerate(targets):
        if value is not None:
            continue
        fill = plan.global_mean
        for name in plan.context_columns:
            means = plan.group_means[name]
            known = [means[v] for v in _split_values(context[name][i]) if v in means]
            if known:
                fill = float(np.mean(known))
                break
        targets[i] = fill
    return frame.replace_column(plan.target_column, NUMBER, targets)


# ---------------------------------------------------------------------------
# spam / duplicate removal


def dedupe_spam(frame: TabularFrame, text_column: str, min_tokens: int = 3) -> TabularFrame:
    """Drop exact duplicate texts and texts below a token-count floor.

    A row is a duplicate when its text, after trimming and lowercasing,
    matches an earlier surviving row; the earlier row is kept. Token
    counts use whitespace splitting. Row order is preserved, and the
    operation is idempotent.
    """
    if min_tokens < 0:
        raise ConfigError("min_tokens must be >= 0")
    col = frame.column(text_column)
    seen = set()
    keep = []
    for i, cell in enumerate(col):
        text = "" if cell is None else str(cell).strip().lower()
        if len(text.split()) < min_tokens:
            continue
        if text in seen:
            continue
        seen.add(text)
        keep.append(i)
    return frame.take_rows(keep)


# ---------------------------------------------------------------------------
# ring undersampling


@dataclass
class RingConfig:
    """Distance-ring undersampling parameters for one class."""

    target_size: int
    num_rings: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.num_rings < 1:
            raise ConfigError("num_rings must be >= 1")
        if self.target_size < 0:
            raise ConfigError("target_size must be >= 0")


def _largest_remainder_quotas(sizes, target: int) -> list:
    """Apportion target among groups proportionally to sizes.

    Floors of the exact shares are assigned first; the leftover units go
    to the groups with the largest fractional remainders, ties broken by
    group index. Quotas never exceed group sizes.
    """
    sizes = [int(s) for s in sizes]
    total = sum(sizes)
    if target > total:
        raise ConfigError(f"target {target} exceeds population {total}")
    if total == 0:
        return [0] * len(sizes)
    exact = [target * s / total for s in sizes]
    quotas = [int(np.floor(e)) for e in exact]
    leftover = target - sum(quotas)
    order = sorted(range(len(sizes)), key=lambda i: (-(exact[i] - quotas[i]), i))
    for i in order[:leftover]:
        quotas[i] += 1
    return quotas


# Bytes of centroid differences that ring_undersample holds at once: the
# distances go through the rows in blocks of about this size.
_BLOCK_BYTES = 1 << 20


def _centroid_distances(points):
    """Euclidean distance of each row of a 2-d float64 array to its mean row.

    Row blocks take the steps np.linalg.norm(points - centroid, axis=1) takes
    for real input (subtract, square, add.reduce over each row, sqrt), so the
    distances are bitwise equal to it. A block ends on a lone row only when
    the array has one row: numpy sums a lone row pairwise but the rows of a
    column-major block one column at a time.
    """
    n, d = points.shape
    centroid = points.mean(axis=0)
    rows = max(2, _BLOCK_BYTES // (points.itemsize * max(d, 1)))
    dists = np.empty(n)
    start = 0
    while start < n:
        stop = start + rows if n - start > rows + 1 else n
        diff = points[start:stop] - centroid
        diff *= diff
        np.sqrt(np.add.reduce(diff, axis=1), out=dists[start:stop])
        del diff  # so that the next block replaces this one instead of joining it
        start = stop
    return dists


def ring_undersample(vectors, cfg: RingConfig) -> list:
    """Select cfg.target_size row indices, stratified by distance rings.

    Rows are ranked by Euclidean distance to the class centroid
    (ascending, index-order tie-break) and cut into cfg.num_rings
    contiguous rings whose sizes differ by at most one. Each ring
    contributes a largest-remainder quota proportional to its size,
    sampled uniformly without replacement with cfg.seed. The returned
    indices are sorted ascending.

    A float64 matrix is used in place. Beyond it the distances need one
    block of about _BLOCK_BYTES and a few arrays of one value per row.
    """
    points = np.asarray(vectors, dtype=np.float64)
    if points.ndim != 2:
        raise DataFormatError("vectors must be a 2-d array")
    n = points.shape[0]
    if cfg.target_size > n:
        raise ConfigError(f"target_size {cfg.target_size} exceeds class size {n}")

    order = np.lexsort((np.arange(n), _centroid_distances(points)))
    rings = np.array_split(order, cfg.num_rings)
    quotas = _largest_remainder_quotas([r.size for r in rings], cfg.target_size)

    rng = np.random.default_rng(cfg.seed)
    chosen = []
    for ring, quota in zip(rings, quotas):
        if quota:
            chosen.extend(rng.choice(ring, size=quota, replace=False).tolist())
    return sorted(int(i) for i in chosen)


# ---------------------------------------------------------------------------
# paraphrase augmentation


# Small default synonym table for the built-in test augmenter.
DEFAULT_SYNONYMS = {
    "good": ("great", "fine", "solid"),
    "bad": ("poor", "awful", "weak"),
    "movie": ("film", "picture"),
    "excellent": ("superb", "outstanding"),
    "terrible": ("dreadful", "horrid"),
    "food": ("meal", "dish"),
    "service": ("staff", "attention"),
    "place": ("spot", "venue"),
}


class SynonymAugmenter:
    """Deterministic paraphraser that swaps words from a synonym table.

    Tokens are matched case-insensitively on whitespace-split words;
    each match is replaced by a seeded uniform choice among its listed
    synonyms. Words without an entry pass through unchanged.
    """

    def __init__(self, synonyms=None):
        table = DEFAULT_SYNONYMS if synonyms is None else synonyms
        self.synonyms = {k.lower(): tuple(v) if isinstance(v, (list, tuple)) else (v,)
                         for k, v in table.items()}

    def __call__(self, text: str, rng) -> str:
        out = []
        for word in text.split():
            options = self.synonyms.get(word.lower())
            if options:
                out.append(options[int(rng.integers(len(options)))])
            else:
                out.append(word)
        return " ".join(out)


class BacktranslationParaphraser:
    """Paraphrase via a pluggable translation transport.

    The transport is a callable taking {"text", "source", "pivot"} and
    returning {"text": paraphrase}. Transport exceptions and malformed
    responses propagate as RuntimeError so augment() can count them.
    """

    def __init__(self, transport, source: str = "es", pivot: str = "en"):
        self.transport = transport
        self.source = source
        self.pivot = pivot

    def __call__(self, text: str, rng) -> str:
        reply = self.transport({"text": text, "source": self.source, "pivot": self.pivot})
        if not isinstance(reply, dict) or "text" not in reply:
            raise RuntimeError("transport reply missing 'text'")
        return str(reply["text"])


@dataclass
class AugmentResult:
    """Augmented corpus plus a count of skipped paraphrase attempts."""

    items: list = field(default_factory=list)
    failures: int = 0


def augment(texts, augmenter, factor: int, seed: int = 0) -> AugmentResult:
    """Expand (text, label) pairs by factor using an augmenter callable.

    Each input contributes itself plus factor - 1 paraphrases with the
    same label, in input order. A paraphrase attempt that raises is
    skipped and counted in the result, never fatal, so the output can
    be shorter than factor * len(texts).
    """
    if factor < 1:
        raise ConfigError("factor must be >= 1")
    rng = np.random.default_rng(seed)
    result = AugmentResult()
    for text, label in texts:
        result.items.append((text, label))
        for _ in range(factor - 1):
            try:
                result.items.append((augmenter(text, rng), label))
            except Exception:
                result.failures += 1
    return result


# ---------------------------------------------------------------------------
# numeric normalization and class reporting


def normalize_year(frame: TabularFrame, column: str) -> TabularFrame:
    """Min-max scale a numeric column to [0, 1] over its present values.

    Missing cells stay missing. The present values must include at
    least two distinct numbers, otherwise the scale is undefined.
    """
    if frame.kind_of(column) != NUMBER:
        raise DataFormatError(f"column {column!r} is not numeric")
    values = frame.column(column)
    present = [float(v) for v in values if v is not None]
    if not present:
        raise DataFormatError(f"column {column!r} has no present values")
    lo, hi = min(present), max(present)
    if lo == hi:
        raise DataFormatError(f"column {column!r} is constant, cannot min-max scale")
    span = hi - lo
    scaled = [None if v is None else (float(v) - lo) / span for v in values]
    return frame.replace_column(column, NUMBER, scaled)


@dataclass
class ClassReport:
    """Per-class example counts, largest class first."""

    counts: list   # (label, count), descending by count
    total: int

    def to_csv(self) -> str:
        lines = ["label,count"]
        lines += [f"{label},{count}" for label, count in self.counts]
        lines.append(f"total,{self.total}")
        return "\n".join(lines) + "\n"


def class_report(labels) -> ClassReport:
    """Count examples per label, sorted by descending count then label."""
    counts = {}
    for label in labels:
        key = label.item() if isinstance(label, np.generic) else label
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))
    return ClassReport(ordered, sum(counts.values()))


# ---------------------------------------------------------------------------
# class rebalancing


def rebalance(texts, labels, target_size: int, factor: int, num_rings: int, seed: int,
              dim: int, min_doc_freq: int) -> tuple[list, int]:
    """Bring each class toward target_size: ((text, label) rows, augment failures).

    Classes go in class_report order. One above the target is ring-undersampled
    on its hashed TF-IDF vectors, one below it is synonym-augmented when
    factor > 1, any other is kept. Bad parameters fail before the corpus is
    vectorized. Only one class is dense at a time, so the peak is about the
    largest undersampled class x dim x 8 bytes beyond the sparse corpus.
    """
    if factor < 1:
        raise ConfigError("factor must be >= 1")
    cfg = RingConfig(target_size, num_rings, seed)
    corpus, _ = textfeat.tfidf_rows(texts, None, dim, min_doc_freq)
    by_label: dict = {}
    for i, label in enumerate(labels):
        by_label.setdefault(label, []).append(i)

    augmenter = SynonymAugmenter()
    rows = []
    failures = 0
    for label, _count in class_report(labels).counts:
        idx = by_label[label]
        if len(idx) > target_size:
            kept = ring_undersample(textfeat.dense_rows(corpus, dim, idx), cfg)
            rows.extend((texts[idx[j]], label) for j in kept)
        elif len(idx) < target_size and factor > 1:
            result = augment([(texts[i], label) for i in idx], augmenter, factor, seed)
            failures += result.failures
            rows.extend(result.items)
        else:
            rows.extend((texts[i], label) for i in idx)
    return rows, failures


# ---------------------------------------------------------------------------
# raw table to dense dataset


def pipeline(frame: TabularFrame, target_column: str, context_columns=None,
             currency_columns=(), dedupe_column=None, min_tokens: int = 3,
             year_column=None, text_columns=None, numeric_columns=(),
             stoplist: set[str] | None = None, dim: int = textfeat.DEFAULT_HASH_DIM,
             min_doc_freq: int = 3) -> tuple[DenseDataset, dict]:
    """``deskbench pipeline``'s flow, a table to (dataset, report dict): currency
    cleanup, dedupe, contextual imputation of the target (the labels), year
    scaling, then the hashed TF-IDF of text_columns and the numeric_columns.
    Context and text columns default to the known ones present in the frame."""
    report = {"rows_in": frame.num_rows}
    if currency_columns:
        frame = dataio.clean_currency(frame, list(currency_columns))
    if dedupe_column:
        frame = dedupe_spam(frame, dedupe_column, min_tokens)
        report["rows_dropped_by_dedupe"] = report["rows_in"] - frame.num_rows
    have = {name for name, _ in frame.columns}
    if context_columns is None:
        context_columns = tuple(c for c in DEFAULT_CONTEXT_COLUMNS if c in have)
    report["imputed_cells"] = sum(1 for v in frame.column(target_column) if v is None)
    frame = impute_apply(frame, impute_fit(frame, target_column, context_columns))
    if year_column:
        frame = normalize_year(frame, year_column)
    if text_columns is None:
        text_columns = tuple(c for c in textfeat.DEFAULT_ALL_TEXT_COLUMNS if c in have)
    if not text_columns:
        raise ConfigError("no text columns available; pass --text-columns")
    features, idf_model = textfeat.feature_matrix(
        frame, text_columns, numeric_columns, stoplist, dim, min_doc_freq)
    labels = np.array([float(v) for v in frame.column(target_column)])
    report.update({
        "rows_out": frame.num_rows,
        "feature_dim": features.shape[1],
        "text_columns": list(text_columns),
        "numeric_columns": list(numeric_columns),
        "idf": {"dim": idf_model.dim, "num_docs": idf_model.num_docs,
                "min_doc_freq": idf_model.min_doc_freq,
                "active_slots": int(np.count_nonzero(idf_model.idf))},
    })
    return DenseDataset(labels, features), report
