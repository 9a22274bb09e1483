"""Text feature pipeline: tokenization, stopwords, hashed term frequencies,
smoothed IDF with a document-frequency cutoff, dense feature matrices
(``feature_matrix``), and a lexicon polarity tagger.

``tfidf_rows`` weights a whole corpus in one array pass: tokens map to
vocabulary ids as each document is tokenized, every distinct token is hashed
once by a vectorized FNV-1a, and the per-(document, slot) counts and document
frequencies come from ``np.unique`` and ``np.bincount``. Only this module reads
its CSR arrays: ``dense_rows`` scatters rows of them into a dense matrix, and
``vectorize_corpus`` slices them into ``SparseVector``s.

``tokenize`` splits ASCII text with one byte translation table and
``str.split``; any other text goes through the Unicode regex."""

from __future__ import annotations

import json
import math
import operator
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import NUMBER, TabularFrame
from .errors import ConfigError, DataFormatError

DEFAULT_HASH_DIM = 5000
MIN_TOKEN_LEN = 2

# maximal runs of at least MIN_TOKEN_LEN letters/digits by Unicode class;
# underscore is a separator
_TOKEN_RE = re.compile(rf"[^\W_]{{{MIN_TOKEN_LEN},}}", re.UNICODE)
# every ASCII byte that is not a letter or digit becomes a space; on ASCII,
# str.isalnum accepts exactly the characters [^\W_] matches
_ASCII_SEPARATORS = bytes(c if c > 127 or chr(c).isalnum() else ord(" ") for c in range(256))

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)

# Join order mirrors the source table's text metadata fields.
DEFAULT_ALL_TEXT_COLUMNS = (
    "title",
    "genre",
    "director",
    "writer",
    "production_company",
    "actors",
    "description",
)


@dataclass(frozen=True)
class SparseVector:
    """Fixed-dimension sparse vector with strictly increasing indices."""

    dim: int
    indices: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if len(self.indices) != len(self.values):
            raise ConfigError("indices and values must have equal length")
        # the chain -1 < i0 < i1 < ... < dim
        indices = self.indices
        if indices and not (-1 < indices[0] and indices[-1] < self.dim
                            and all(map(operator.lt, indices, indices[1:]))):
            raise ConfigError("indices must be strictly increasing in [0, dim)")
        if 0.0 in self.values:
            raise ConfigError("explicit zeros are not allowed")

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim)
        nnz = len(self.indices)
        out[np.fromiter(self.indices, np.intp, nnz)] = np.fromiter(self.values, np.float64, nnz)
        return out

    def to_json(self) -> str:
        return json.dumps(
            {"dim": self.dim, "idx": list(self.indices), "val": list(self.values)},
            separators=(",", ":"),
        )


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop tokens shorter than 2.

    ASCII text (tested after lowering, so U+212A KELVIN SIGN counts as ``k``)
    has its separators turned into spaces by one byte table and is split on
    them; any other text keeps the Unicode regex. Both give the same tokens."""
    text = text.lower()
    if text.isascii():
        return [token for token in text.encode().translate(_ASCII_SEPARATORS).decode().split()
                if len(token) >= MIN_TOKEN_LEN]
    return _TOKEN_RE.findall(text)


def remove_stopwords(tokens: list[str], stoplist: set[str]) -> list[str]:
    return [t for t in tokens if t not in stoplist]


def hash_tokens(tokens: list[str]) -> np.ndarray:
    """64-bit FNV-1a of each token's UTF-8 bytes, as uint64 (wraparound is the
    modulus). Tokens are sorted longest first, so the tokens still being read
    at byte position p are a prefix; memory is O(total bytes)."""
    encoded = [t.encode("utf-8") for t in tokens]
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    order = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
    data = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    # live[p]: number of tokens longer than p bytes
    live = len(encoded) - np.cumsum(np.bincount(lengths))
    h = np.full(len(encoded), _FNV_OFFSET, dtype=np.uint64)
    for pos, n in enumerate(live[:-1].tolist()):
        h[:n] ^= data[starts[:n] + pos]
        h[:n] *= _FNV_PRIME
    out = np.empty_like(h)
    out[order] = h
    return out


def _slots(tokens: list[str], dim: int) -> np.ndarray:
    """Hash bucket in [0, dim) of each token."""
    if dim < 1:
        raise ConfigError("dim must be >= 1")
    return (hash_tokens(tokens) % np.uint64(dim)).astype(np.int64)


def hashed_tf(tokens: list[str], dim: int = DEFAULT_HASH_DIM) -> SparseVector:
    """Term counts bucketed by FNV-1a 64-bit hash mod dim; collisions sum."""
    slots, counts = np.unique(_slots(tokens, dim), return_counts=True)
    return SparseVector(dim, tuple(slots.tolist()), tuple(counts.astype(float).tolist()))


@dataclass(frozen=True)
class IdfModel:
    """Document frequencies and the smoothed idf weights derived from them."""

    dim: int
    num_docs: int
    doc_freq: tuple[int, ...]
    min_doc_freq: int
    idf: tuple[float, ...]


def idf_fit(corpus: list[SparseVector], min_doc_freq: int) -> IdfModel:
    """Count documents per slot; idf = ln((N+1)/(df+1)), zeroed under the cutoff."""
    if not corpus:
        raise ConfigError("empty corpus")
    dim = corpus[0].dim
    df = np.zeros(dim, dtype=np.int64)
    for vec in corpus:
        if vec.dim != dim:
            raise DataFormatError(f"dim mismatch: {vec.dim} != {dim}")
        for i in vec.indices:
            df[i] += 1
    return _idf_model(df, len(corpus), min_doc_freq)


def _idf_model(df: np.ndarray, n: int, min_doc_freq: int) -> IdfModel:
    """The one idf formula, for idf_fit and tfidf_rows alike."""
    idf = np.zeros(len(df))
    kept = df >= min_doc_freq
    idf[kept] = np.log((n + 1) / (df[kept] + 1))
    return IdfModel(len(df), n, tuple(df.tolist()), min_doc_freq, tuple(idf.tolist()))


def idf_transform(model: IdfModel, vec: SparseVector) -> SparseVector:
    """Scale tf by idf elementwise; slots with zero idf drop out."""
    if vec.dim != model.dim:
        raise DataFormatError(f"dim mismatch: {vec.dim} != {model.dim}")
    indices = []
    values = []
    for i, v in zip(vec.indices, vec.values):
        w = v * model.idf[i]
        if w != 0.0:
            indices.append(i)
            values.append(w)
    return SparseVector(vec.dim, tuple(indices), tuple(values))


def assemble(text_vec: SparseVector,
             numerics: list[tuple[str, float]]) -> SparseVector:
    """Append named numeric features after the text block; order is the contract."""
    for name, value in numerics:
        if not math.isfinite(value):
            raise DataFormatError(f"non-finite numeric feature {name!r}: {value}")
    dim = text_vec.dim + len(numerics)
    indices = list(text_vec.indices)
    values = list(text_vec.values)
    for j, (_, value) in enumerate(numerics):
        if value != 0.0:
            indices.append(text_vec.dim + j)
            values.append(float(value))
    return SparseVector(dim, tuple(indices), tuple(values))


def sentiment_tag(tokens: list[str], lexicon: dict[str, str]) -> str:
    """Count pos/neg lexicon hits; returns positive, negative, or neutral."""
    pos = sum(1 for t in tokens if lexicon.get(t) == "pos")
    neg = sum(1 for t in tokens if lexicon.get(t) == "neg")
    if pos > neg:
        return "positive"
    if neg > pos:
        return "negative"
    return "neutral"


def all_text_column(frame: TabularFrame,
                    columns=DEFAULT_ALL_TEXT_COLUMNS) -> list[str]:
    """Each row's selected text cells, missing and empty ones skipped, space-joined."""
    pieces = [[] for _ in range(frame.num_rows)]
    for name in columns:
        for row, cell in zip(pieces, frame.column(name)):
            if cell is not None and (piece := str(cell)):
                row.append(piece)
    return [" ".join(row) for row in pieces]


def load_stoplist(path) -> set[str]:
    """One lowercase token per line; blank lines ignored."""
    words = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        token = line.strip()
        if token:
            words.add(token)
    return words


def tfidf_rows(texts: list[str], stoplist: set[str] | None = None,
               dim: int = DEFAULT_HASH_DIM,
               min_doc_freq: int = 3) -> tuple[tuple, IdfModel]:
    """tokenize -> stopword filter -> hashed tf -> idf, over a whole corpus.

    ((indptr, indices, values), model): document i's nonzero weights sit at
    the strictly increasing slots indices[indptr[i]:indptr[i + 1]]. They and
    the model equal ``idf_transform(idf_fit(tf), v)`` over each ``hashed_tf``."""
    vocab: defaultdict[str, int] = defaultdict()
    vocab.default_factory = vocab.__len__  # a new token gets the next id
    ids = array("q")
    doc_lengths = array("q")
    for text in texts:
        tokens = tokenize(text)
        if stoplist:
            tokens = remove_stopwords(tokens, stoplist)
        ids.extend(map(vocab.__getitem__, tokens))
        doc_lengths.append(len(tokens))
    n = len(doc_lengths)
    if not n:
        raise ConfigError("empty corpus")
    slot_of_id = _slots(list(vocab), dim)
    docs = np.repeat(np.arange(n, dtype=np.int64), doc_lengths)
    # (doc, slot) keys sort doc-major, slot-minor: CSR order
    keys, counts = np.unique(docs * dim + slot_of_id[np.frombuffer(ids, dtype=np.int64)],
                             return_counts=True)
    row, col = np.divmod(keys, dim)
    model = _idf_model(np.bincount(col, minlength=dim), n, min_doc_freq)
    weights = counts * np.array(model.idf)[col]
    kept = weights != 0.0
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row[kept], minlength=n))))
    return (indptr, col[kept], weights[kept]), model


def dense_rows(rows: tuple, width: int, subset) -> np.ndarray:
    """The ``tfidf_rows`` rows numbered in ``subset``, in that order, as a zero
    (len, width) matrix holding their weights, written by one fancy-index
    assignment. Each (row, slot) is set once, so every value is exact."""
    indptr, indices, values = rows
    starts, lengths = indptr[:-1][subset], np.diff(indptr)[subset]
    # the chosen rows' entries, concatenated: starts[r], starts[r] + 1, ...
    at = np.arange(lengths.sum()) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    dense = np.zeros((len(lengths), width))
    dense[np.repeat(np.arange(len(lengths)), lengths), indices[at]] = values[at]
    return dense


def vectorize_corpus(texts: list[str], stoplist: set[str] | None = None,
                     dim: int = DEFAULT_HASH_DIM,
                     min_doc_freq: int = 3) -> tuple[list[SparseVector], IdfModel]:
    """``tfidf_rows`` with each document's row as a ``SparseVector``. The
    vectors share one int object per slot and one float object per distinct
    weight: weights are positive and finite, so equal values have equal bits."""
    (indptr, indices, values), model = tfidf_rows(texts, stoplist, dim, min_doc_freq)
    weights, which = np.unique(values, return_inverse=True)
    indices = np.array(range(dim), dtype=object)[indices].tolist()
    values = np.array(weights.tolist(), dtype=object)[which].tolist()
    bounds = indptr.tolist()
    return [SparseVector(dim, tuple(indices[a:b]), tuple(values[a:b]))
            for a, b in zip(bounds[:-1], bounds[1:])], model


def feature_matrix(frame: TabularFrame, text_columns, numeric_columns,
                   stoplist: set[str] | None, dim: int,
                   min_doc_freq: int) -> tuple[np.ndarray, IdfModel]:
    """(features, IdfModel): per frame row, the hashed TF-IDF block of the joined
    text columns, then the numeric columns in order (a missing cell is 0.0).
    A numeric column whose kind is not number, or the first non-finite numeric
    cell in row-major order, fails the matrix."""
    for name in numeric_columns:
        if frame.kind_of(name) != NUMBER:
            raise DataFormatError(f"column {name!r} is not numeric")
    rows, model = tfidf_rows(all_text_column(frame, text_columns), stoplist, dim, min_doc_freq)
    # `v or 0.0` turns a missing cell and -0.0 into 0.0
    numerics = np.array([[v or 0.0 for v in frame.column(name)] for name in numeric_columns],
                        dtype=np.float64).reshape(len(numeric_columns), frame.num_rows).T
    bad = np.argwhere(~np.isfinite(numerics))
    if len(bad):
        i, j = bad[0]
        raise DataFormatError(
            f"non-finite numeric feature {numeric_columns[j]!r}: {float(numerics[i, j])}")
    features = dense_rows(rows, dim + len(numeric_columns), range(frame.num_rows))
    features[:, dim:] = numerics
    return features, model
