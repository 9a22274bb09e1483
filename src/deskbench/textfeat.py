"""Text feature pipeline: tokenization, stopwords, hashed term frequencies,
smoothed IDF with a document-frequency cutoff, vector assembly into a dense
feature matrix (``feature_matrix``), and a lexicon polarity tagger.

``vectorize_corpus`` weights a whole corpus in one array pass: tokens map to
vocabulary ids as each document is tokenized, every distinct token is hashed
once by a vectorized FNV-1a, and the per-(document, slot) counts and document
frequencies come from ``np.unique`` and ``np.bincount``."""

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

from .dataio import TabularFrame
from .errors import ConfigError, DataFormatError

DEFAULT_HASH_DIM = 5000
MIN_TOKEN_LEN = 2

# maximal runs of at least MIN_TOKEN_LEN letters/digits by Unicode class;
# underscore is a separator
_TOKEN_RE = re.compile(rf"[^\W_]{{{MIN_TOKEN_LEN},}}", re.UNICODE)

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
        if not all(map(operator.lt, (-1, *self.indices), (*self.indices, self.dim))):
            raise ConfigError("indices must be strictly increasing in [0, dim)")
        if 0.0 in self.values:
            raise ConfigError("explicit zeros are not allowed")

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim)
        if self.indices:
            out[list(self.indices)] = self.values
        return out

    def to_json(self) -> str:
        return json.dumps(
            {"dim": self.dim, "idx": list(self.indices), "val": list(self.values)},
            separators=(",", ":"),
        )


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop tokens shorter than 2."""
    return _TOKEN_RE.findall(text.lower())


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
    """The one idf formula, for idf_fit and vectorize_corpus alike."""
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


def build_all_text(frame: TabularFrame, row_index: int,
                   columns=DEFAULT_ALL_TEXT_COLUMNS) -> str:
    """Single-space join of the row's selected text cells, missing cells skipped."""
    pieces = []
    for name in columns:
        cell = frame.cells[row_index][frame.col_index(name)]
        if cell is None:
            continue
        piece = str(cell)
        if piece:
            pieces.append(piece)
    return " ".join(pieces)


def all_text_column(frame: TabularFrame,
                    columns=DEFAULT_ALL_TEXT_COLUMNS) -> list[str]:
    return [build_all_text(frame, i, columns) for i in range(frame.num_rows)]


def load_stoplist(path) -> set[str]:
    """One lowercase token per line; blank lines ignored."""
    words = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        token = line.strip()
        if token:
            words.add(token)
    return words


def vectorize_corpus(texts: list[str], stoplist: set[str] | None = None,
                     dim: int = DEFAULT_HASH_DIM,
                     min_doc_freq: int = 3) -> tuple[list[SparseVector], IdfModel]:
    """tokenize -> stopword filter -> hashed tf -> idf, over a whole corpus.

    Same vectors and model as ``idf_transform(idf_fit(tf), v)`` over each
    document's ``hashed_tf``, computed as one CSR pass."""
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
    indices, values = col[kept].tolist(), weights[kept].tolist()
    bounds = indptr.tolist()
    return [SparseVector(dim, tuple(indices[a:b]), tuple(values[a:b]))
            for a, b in zip(bounds[:-1], bounds[1:])], model


def feature_matrix(frame: TabularFrame, text_columns, numeric_columns,
                   stoplist: set[str] | None, dim: int,
                   min_doc_freq: int) -> tuple[np.ndarray, IdfModel]:
    """(features, IdfModel): per frame row, the hashed TF-IDF block of the joined
    text columns, then the numeric columns in order (a missing cell is 0.0)."""
    texts = all_text_column(frame, text_columns)
    vectors, model = vectorize_corpus(texts, stoplist, dim, min_doc_freq)
    columns = [frame.column(name) for name in numeric_columns]
    features = np.zeros((frame.num_rows, dim + len(numeric_columns)))
    for i, vec in enumerate(vectors):
        numerics = [(name, float(column[i] or 0.0))
                    for name, column in zip(numeric_columns, columns)]
        features[i] = assemble(vec, numerics).to_dense()
    return features, model
