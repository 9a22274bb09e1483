"""Text feature pipeline: tokenization, stopwords, hashed term frequencies,
smoothed IDF with a document-frequency cutoff, vector assembly, and a
lexicon polarity tagger."""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import TabularFrame
from .errors import ConfigError, DataFormatError

DEFAULT_HASH_DIM = 5000
MIN_TOKEN_LEN = 2

# letters/digits by Unicode class; underscore is a separator
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = (1 << 64) - 1

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
        prev = -1
        for i in self.indices:
            if not prev < i < self.dim:
                raise ConfigError("indices must be strictly increasing in [0, dim)")
            prev = i
        if any(v == 0.0 for v in self.values):
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


def fnv1a_64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _U64
    return h


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop tokens shorter than 2."""
    return [t for t in _TOKEN_RE.findall(text.lower()) if len(t) >= MIN_TOKEN_LEN]


def remove_stopwords(tokens: list[str], stoplist: set[str]) -> list[str]:
    return [t for t in tokens if t not in stoplist]


def hashed_tf(tokens: list[str], dim: int = DEFAULT_HASH_DIM) -> SparseVector:
    """Term counts bucketed by FNV-1a 64-bit hash mod dim; collisions sum."""
    if dim < 1:
        raise ConfigError("dim must be >= 1")
    counts: dict[int, float] = {}
    for token in tokens:
        idx = fnv1a_64(token.encode("utf-8")) % dim
        counts[idx] = counts.get(idx, 0.0) + 1.0
    items = sorted(counts.items())
    return SparseVector(dim, tuple(i for i, _ in items), tuple(v for _, v in items))


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
    n = len(corpus)
    idf = np.zeros(dim)
    kept = df >= min_doc_freq
    idf[kept] = np.log((n + 1) / (df[kept] + 1))
    return IdfModel(dim, n, tuple(int(x) for x in df), min_doc_freq,
                    tuple(float(x) for x in idf))


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
    """tokenize -> stopword filter -> hashed tf -> idf, over a whole corpus."""
    stoplist = stoplist or set()
    tf = [hashed_tf(remove_stopwords(tokenize(t), stoplist), dim) for t in texts]
    model = idf_fit(tf, min_doc_freq)
    return [idf_transform(model, v) for v in tf], model
