"""Dataset I/O: dense label+feature files, tabular CSV, synthetic generation,
part splitting, and the multi-part manifest."""

from __future__ import annotations

import csv
import io
import json
import math
import re
from array import array
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError

LABEL_MAPS = ("zero_one", "plus_minus_one", "raw")

TEXT = "text"
NUMBER = "number"

_MISSING_SENTINELS = {"", "na", "n/a"}
_NUMERIC_RE = re.compile(r"^[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?$")
_CURRENCY_CODE_RE = re.compile(r"^[A-Za-z]{1,3}(?![A-Za-z])")

# parse_dense doubles its matrix while it is smaller than this, then grows it
# by an eighth, so a large file just past a step holds at most 1.125 matrices.
_DOUBLING_BYTES = 4 << 20


@dataclass(frozen=True, eq=False)
class DenseDataset:
    """Row-major labeled dense matrix. Treat instances as immutable."""

    labels: np.ndarray    # shape (n,), float64
    features: np.ndarray  # shape (n, f), float64

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.float64)
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2:
            raise ConfigError("features must be a 2-d array")
        if labels.shape != (features.shape[0],):
            raise ConfigError("labels length must match feature row count")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "features", features)

    @property
    def num_rows(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def is_binary(self) -> bool:
        return bool(np.isin(self.labels, (0.0, 1.0)).all())

    def take(self, indices) -> "DenseDataset":
        idx = np.asarray(indices)
        return DenseDataset(self.labels[idx], self.features[idx])


@dataclass
class DatasetManifest:
    """Bookkeeping for a dataset persisted as ordered parts."""

    name: str
    num_rows: int
    num_features: int
    parts: list[str]
    label_kind: str  # "binary" | "continuous"
    seed: int | None = None

    def __post_init__(self):
        if not self.parts:
            raise ConfigError("manifest needs at least one part")
        if self.label_kind not in ("binary", "continuous"):
            raise ConfigError(f"bad label_kind: {self.label_kind!r}")

    def to_json(self) -> str:
        obj = asdict(self)
        if self.seed is None:
            del obj["seed"]
        return json.dumps(obj, indent=2)


@dataclass
class TabularFrame:
    """Named-column table. Cells are str/float, None marks a missing cell."""

    columns: list[tuple[str, str]]  # (name, kind), kind in {text, number}
    cells: list[list]               # row-major

    def __post_init__(self):
        names = [n for n, _ in self.columns]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate column names")
        for _, kind in self.columns:
            if kind not in (TEXT, NUMBER):
                raise ConfigError(f"bad column kind: {kind!r}")
        width = len(self.columns)
        for i, row in enumerate(self.cells):
            if len(row) != width:
                raise ConfigError(f"row {i} has {len(row)} cells, expected {width}")

    @property
    def num_rows(self) -> int:
        return len(self.cells)

    def col_index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.columns):
            if n == name:
                return i
        raise DataFormatError(f"unknown column: {name!r}")

    def kind_of(self, name: str) -> str:
        return self.columns[self.col_index(name)][1]

    def column(self, name: str) -> list:
        j = self.col_index(name)
        return [row[j] for row in self.cells]

    def replace_column(self, name: str, kind: str, values: list) -> "TabularFrame":
        j = self.col_index(name)
        if len(values) != self.num_rows:
            raise ConfigError("replacement column has wrong length")
        columns = list(self.columns)
        columns[j] = (name, kind)
        cells = [row[:j] + [values[i]] + row[j + 1:] for i, row in enumerate(self.cells)]
        return TabularFrame(columns, cells)

    def take_rows(self, indices) -> "TabularFrame":
        return TabularFrame(list(self.columns), [list(self.cells[i]) for i in indices])


@contextmanager
def _text_lines(stream):
    """The stream as UTF-8 text. A binary stream is wrapped for the block and
    detached after it, so the caller's stream stays open."""
    if isinstance(stream, (str, bytes)):
        raise ConfigError("parse expects a file-like stream, not raw text")
    if isinstance(stream, io.TextIOBase):
        yield stream
        return
    text = io.TextIOWrapper(stream, encoding="utf-8", newline="")
    try:
        yield text
    finally:
        text.detach()


def _parse_label(raw: str, label_map: str, line_no: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise DataFormatError(
            f"line {line_no}: non-numeric label {raw!r}"
        ) from None
    if label_map == "zero_one":
        if value not in (0.0, 1.0):
            raise DataFormatError(
                f"line {line_no}: label {raw!r} outside alphabet {{0, 1}}"
            )
        return value
    if label_map == "plus_minus_one":
        if value == -1.0:
            return 0.0
        if value == 1.0:
            return 1.0
        raise DataFormatError(
            f"line {line_no}: label {raw!r} outside alphabet {{-1, +1}}"
        )
    # raw: any finite target, used for regression datasets
    if not np.isfinite(value):
        raise DataFormatError(f"line {line_no}: non-finite label {raw!r}")
    return value


def _field_error(fields: list[str], line_no: int) -> DataFormatError:
    """The error for the first non-numeric or non-finite feature field of a
    line whose conversion failed."""
    for j, raw in enumerate(fields[1:], start=2):
        try:
            v = float(raw)
        except ValueError:
            return DataFormatError(
                f"line {line_no}, column {j}: non-numeric field {raw!r}"
            )
        if not np.isfinite(v):
            return DataFormatError(
                f"line {line_no}, column {j}: non-finite field {raw!r}"
            )
    raise AssertionError(f"line {line_no} converted cleanly on the second scan")


def parse_dense(stream, num_features: int | None, label_map: str) -> DenseDataset:
    """Parse `label,f1,...,fF` lines. Streaming, with line-granular errors.

    num_features=None infers the width from the first line; every later line
    must match it. label_map: zero_one keeps {0,1}; plus_minus_one maps
    -1 -> 0 and +1 -> 1; raw accepts any finite target.

    Each line's feature fields are converted in one pass by the builtin
    `float` and checked for finiteness as one array. Only a line that fails
    is scanned field by field, to name its first bad column.
    """
    if label_map not in LABEL_MAPS:
        raise ConfigError(f"label_map must be one of {LABEL_MAPS}")
    if num_features is not None and num_features < 1:
        raise ConfigError("num_features must be >= 1")

    labels = array("d")  # C doubles, not one float object per row
    matrix = np.empty(0)  # grown geometrically; no view of it outlives a resize
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
            try:
                vec = np.fromiter(map(float, fields[1:]), np.float64, width)
            except ValueError:
                raise _field_error(fields, line_no) from None
            if not np.isfinite(vec).all():
                raise _field_error(fields, line_no)
            if len(labels) > matrix.shape[0]:
                rows = matrix.shape[0]
                rows += max(16, rows if matrix.nbytes < _DOUBLING_BYTES else rows // 8)
                matrix.resize((rows, width), refcheck=False)
            matrix[len(labels) - 1] = vec

    if not labels:
        raise DataFormatError("empty dense stream")
    matrix.resize((len(labels), width), refcheck=False)
    return DenseDataset(np.array(labels), matrix)


def write_dense(ds: DenseDataset, stream) -> None:
    """Write `label,f1,...,fF` lines, LF endings, shortest round-trip floats."""
    with _text_lines(stream) as out:
        for label, row in zip(ds.labels.tolist(), ds.features):
            out.write(",".join(map(repr, [label, *row.tolist()])))
            out.write("\n")
        out.flush()


def load_dense(path, num_features: int | None = None,
               label_map: str = "zero_one") -> DenseDataset:
    with open(path, "rb") as fh:
        return parse_dense(fh, num_features, label_map)


def save_dense(ds: DenseDataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_dense(ds, fh)


def generate_synthetic(num_rows: int, num_features: int, separation: float,
                       seed: int) -> DenseDataset:
    """Linear-teacher synthetic stand-in for the dense benchmark corpus.

    Draws a hidden unit weight vector, standard-normal features, and labels
    by the sign of teacher score plus noise whose scale shrinks as
    `separation` grows. Pure function of its arguments.
    """
    if num_rows < 2 or num_features < 1:
        raise ConfigError("need num_rows >= 2 and num_features >= 1")
    if separation < 0:
        raise ConfigError("separation must be >= 0")
    rng = np.random.default_rng(seed)
    teacher = rng.standard_normal(num_features)
    teacher /= np.linalg.norm(teacher)
    features = rng.standard_normal((num_rows, num_features))
    noise = rng.standard_normal(num_rows) / (1.0 + separation)
    labels = (features @ teacher + noise > 0).astype(np.float64)
    return DenseDataset(labels, features)


def split_parts(ds: DenseDataset, k: int, shuffle_seed: int,
                name: str = "dataset") -> tuple[list[DenseDataset], DatasetManifest]:
    """Seeded shuffle then contiguous slicing into k parts, sizes differing <= 1."""
    if k < 2:
        raise ConfigError("k must be >= 2")
    if k > ds.num_rows:
        raise ConfigError(f"k={k} exceeds row count {ds.num_rows}")
    rng = np.random.default_rng(shuffle_seed)
    perm = rng.permutation(ds.num_rows)
    parts = [ds.take(chunk) for chunk in np.array_split(perm, k)]
    manifest = DatasetManifest(
        name=name,
        num_rows=ds.num_rows,
        num_features=ds.num_features,
        parts=[f"{name}.part{i}.csv" for i in range(k)],
        label_kind="binary" if ds.is_binary() else "continuous",
        seed=shuffle_seed,
    )
    return parts, manifest


def save_parts(parts: list[DenseDataset], manifest: DatasetManifest,
               directory) -> Path:
    """Write each part next to a `<name>.manifest.json`; returns manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if len(parts) != len(manifest.parts):
        raise ConfigError("part count does not match manifest")
    for part, rel in zip(parts, manifest.parts):
        save_dense(part, directory / rel)
    manifest_path = directory / f"{manifest.name}.manifest.json"
    manifest_path.write_text(manifest.to_json() + "\n", encoding="utf-8")
    return manifest_path


def _is_missing(raw: str) -> bool:
    return raw.strip().lower() in _MISSING_SENTINELS


def parse_tabular(stream, schema: list[tuple[str, str]]) -> TabularFrame:
    """RFC-4180-style CSV with a header row; columns matched by header name.

    Empty cells and the literals NA / N/A (case-insensitive) become missing.
    A number cell must be finite.
    """
    if not schema:
        raise ConfigError("schema must name at least one column")
    for name, kind in schema:
        if kind not in (TEXT, NUMBER):
            raise ConfigError(f"bad schema kind for {name!r}: {kind!r}")
    with _text_lines(stream) as lines:
        reader = csv.reader(lines)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError("empty tabular stream, header required") from None
        positions = {}
        for name, _ in schema:
            try:
                positions[name] = header.index(name)
            except ValueError:
                pass
        absent = [name for name, _ in schema if name not in positions]
        if absent:
            raise DataFormatError(f"header missing schema columns: {absent}")

        cells = []
        for line_no, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != len(header):
                raise DataFormatError(
                    f"line {line_no}: expected {len(header)} fields, got {len(record)}"
                )
            row = []
            for name, kind in schema:
                raw = record[positions[name]]
                if _is_missing(raw):
                    row.append(None)
                elif kind == NUMBER:
                    try:
                        value = float(raw)
                    except ValueError:
                        raise DataFormatError(
                            f"line {line_no}, column {name!r}: non-numeric {raw!r}"
                        ) from None
                    if not math.isfinite(value):
                        raise DataFormatError(
                            f"line {line_no}, column {name!r}: non-finite {raw!r}")
                    row.append(value)
                else:
                    row.append(raw)
            cells.append(row)
    return TabularFrame(list(schema), cells)


def load_tabular(path, schema: list[tuple[str, str]]) -> TabularFrame:
    with open(path, "rb") as fh:
        return parse_tabular(fh, schema)


def write_tabular(frame: TabularFrame, stream) -> None:
    """Write the frame back out as RFC-4180 CSV; missing cells become empty."""
    with _text_lines(stream) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([name for name, _ in frame.columns])
        for row in frame.cells:
            writer.writerow(["" if v is None else v for v in row])
        out.flush()


def save_tabular(frame: TabularFrame, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_tabular(frame, fh)


def _currency_to_float(raw: str) -> float | None:
    s = raw.replace("$", "").replace(",", "").strip()
    code = _CURRENCY_CODE_RE.match(s)
    if code:
        s = s[code.end():].strip()
    if _NUMERIC_RE.match(s) and math.isfinite(value := float(s)):
        return value
    return None


def clean_currency(frame: TabularFrame, columns: list[str]) -> TabularFrame:
    """Convert text money columns to numbers, stripping $ , spaces and an
    optional 1-3 letter currency code. Unconvertible cells, and amounts too
    large for a float, become missing."""
    out = frame
    for name in columns:
        if out.kind_of(name) != TEXT:
            raise DataFormatError(f"column {name!r} is not text")
        values = [
            None if cell is None else _currency_to_float(cell)
            for cell in out.column(name)
        ]
        out = out.replace_column(name, NUMBER, values)
    return out
