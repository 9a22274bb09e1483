"""Dataset I/O: dense label+feature files, tabular CSV, synthetic generation,
part splitting, and the multi-part manifest."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import stat
import struct
from array import array
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import forks
from .errors import ConfigError, DataFormatError

LABEL_MAPS = ("zero_one", "plus_minus_one", "raw")

TEXT = "text"
NUMBER = "number"

_MISSING_SENTINELS = {"", "na", "n/a"}
_MISSING_MAX_LEN = max(map(len, _MISSING_SENTINELS))
_NUMERIC_RE = re.compile(r"^[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?$")
_CURRENCY_CODE_RE = re.compile(r"^[A-Za-z]{1,3}(?![A-Za-z])")

# parse_dense doubles its matrix while it is smaller than this, then grows it
# by an eighth, so a large file just past a step holds at most 1.125 matrices.
_DOUBLING_BYTES = 4 << 20
# parse_dense gives each usable core a byte range of a regular file, but no
# range is smaller than this: a fork and its pipe cost a few milliseconds.
_MIN_RANGE_BYTES = 1 << 20
# write_dense gives each usable core a row range of at least this many cells
# (labels and features), so the rating flow's 500x259 features.csv stays serial.
_MIN_WRITE_CELLS = 1 << 17
_RELAY_BYTES = 1 << 16  # the most of a child's formatted range held at once
# _write_rows formats a row whose nonzero cells are at most this share of its
# width from those cells alone, with ",0.0" for each zero between them. That
# beat formatting every cell on rows of 10 to 1000 cells up to a share of about
# 0.3 (the crossover), and lost beyond it.
_SPARSE_ROW_SHARE = 0.25
_WRITE_BLOCK_ROWS = 256  # rows per pass of _write_rows: bounds its mask and cell list


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


class RowView:
    """The rows of base at the row numbers rows, read in place: trainers
    gather them through matrix_rows."""

    def __init__(self, base: DenseDataset, rows: np.ndarray):
        self.base, self.rows, self.labels = base, rows, base.labels[rows]
        self.num_rows, self.num_features = len(rows), base.num_features

    is_binary = DenseDataset.is_binary


def matrix_rows(ds) -> tuple[np.ndarray, np.ndarray]:
    """The matrix ds's rows are read from, and their row numbers in it."""
    if isinstance(ds, RowView):
        return ds.base.features, ds.rows
    return ds.features, np.arange(ds.num_rows)


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


def _parse_rows(lines, label_map: str):
    """Parse `label,f1,...,fF` lines into (labels, matrix, width of the first
    line or None). The matrix has at least len(labels) rows; the rows past
    them are spare capacity."""
    labels = array("d")  # C doubles, not one float object per row
    matrix = np.empty(0)  # grown geometrically; no view of it outlives a resize
    width = None
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
    return labels, matrix, width


class _RangeReader(io.RawIOBase):
    """Bytes [pos, end) of a file descriptor, read with os.pread, so the
    offset that the descriptor shares with forked children never moves."""

    def __init__(self, fd: int, pos: int, end: int):
        super().__init__()
        self._fd, self._pos, self._end = fd, pos, end

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        data = os.pread(self._fd, min(len(buf), self._end - self._pos), self._pos)
        buf[:len(data)] = data
        self._pos += len(data)
        return len(data)


def _parse_range(fd: int, start: int, end: int, label_map):
    raw = io.BufferedReader(_RangeReader(fd, start, end))
    with io.TextIOWrapper(raw, encoding="utf-8", newline="") as lines:
        return _parse_rows(lines, label_map)


def _range_cuts(stream) -> list[int] | None:
    """Offsets start < c1 < ... < end that split a binary file stream, from
    its position to the end of the file, into at most one range per usable
    core and none under _MIN_RANGE_BYTES. Each cut lies just past a b"\\n",
    so a line, a \\r\\n and a UTF-8 sequence are never split. None when the
    stream is not a regular file read as it is stored, when forking is
    unavailable or unsafe (other threads), or when one range would do."""
    if not isinstance(stream, (io.FileIO, io.BufferedReader, io.BufferedRandom)):
        return None
    try:
        fd = stream.fileno()
        info = os.fstat(fd)
        start = stream.tell()
        if not stat.S_ISREG(info.st_mode):
            return None
        end = info.st_size
        k = min(forks._fork_cores(), (end - start) // _MIN_RANGE_BYTES)
        cuts = [start]
        for i in range(1, k):
            pos = max(cuts[-1], start + (end - start) * i // k)
            while pos < end:
                chunk = os.pread(fd, io.DEFAULT_BUFFER_SIZE, pos)
                if not chunk:
                    break
                newline = chunk.find(b"\n")
                if newline >= 0:
                    cuts.append(pos + newline + 1)
                    break
                pos += len(chunk)
    except (OSError, ValueError):
        return None
    cuts = [c for c in cuts if c < end] + [end]
    return cuts if len(cuts) > 2 else None


def _parsed_range(fd: int, start: int, end: int, label_map):
    """The buffers a parse child sends: (rows, width), labels, C-order matrix."""
    labels, matrix, width = _parse_range(fd, start, end, label_map)
    rows = len(labels)
    head = struct.pack("=qq", rows, width or 0)
    return [head, labels, matrix[:rows]] if rows else [head]


def _parse_ranges(stream, label_map):
    """(labels, matrix, width) of a regular file parsed in line-aligned byte
    ranges, ranges 1.. in forked children, or None when the ranges do not
    apply or one is lost or fails: the caller's serial parse then raises
    any error with its line number."""
    cuts = _range_cuts(stream)
    if cuts is None:
        return None
    fd = stream.fileno()
    shares = [(fd, start, end, label_map) for start, end in zip(cuts[1:-1], cuts[2:])]
    try:
        with forks.forked(_parsed_range, shares) as children:
            labels, matrix, width = _parse_range(fd, cuts[0], cuts[1], label_map)
            heads = [struct.unpack("=qq", forks._recv(r, bytearray(16))) for r in children.reads]
            widths = {w for w in [width, *(w for _, w in heads)] if w}
            if len(widths) > 1:
                return None  # the serial parse names the first line off the width
            width = widths.pop() if widths else width
            n = len(labels)
            total = n + sum(rows for rows, _ in heads)
            if total > n:
                matrix.resize((total, width), refcheck=False)
            for r, (rows, _) in zip(children.reads, heads):
                if rows:
                    labels.frombytes(forks._recv(r, bytearray(8 * rows)))
                    forks._recv(r, matrix[n:n + rows])
                    n += rows
    except Exception:
        return None
    if not children.clean:
        return None
    stream.seek(cuts[-1])
    return labels, matrix, width


def parse_dense(stream, label_map: str) -> DenseDataset:
    """Parse `label,f1,...,fF` lines. Streaming, with line-granular errors.

    The first line sets the width; every later line must match it.
    label_map: zero_one keeps {0,1}; plus_minus_one maps -1 -> 0 and
    +1 -> 1; raw accepts any finite target.

    Each line's feature fields are converted in one pass by the builtin
    `float` and checked for finiteness as one array. Only a line that fails
    is scanned field by field, to name its first bad column.

    A regular file opened in binary mode (a `FileIO`, `BufferedReader` or
    `BufferedRandom`) with at least 2 * _MIN_RANGE_BYTES left is cut at line
    ends into one byte range per usable core. Ranges after the first are
    parsed by the same loop in forked children, which send their rows back
    through pipes; the result is bit-identical to a serial parse. Text
    streams, pipes, small files and processes running other threads are
    parsed serially. Unlike the other users of forks, the parse does not
    redo a lost range alone: a lost range or any failure of one (a bad
    line, a width change, a decode error) discards the ranges and parses
    the whole stream serially, which raises the error with its line number.
    """
    if label_map not in LABEL_MAPS:
        raise ConfigError(f"label_map must be one of {LABEL_MAPS}")

    parsed = _parse_ranges(stream, label_map)
    if parsed is None:
        with _text_lines(stream) as lines:
            parsed = _parse_rows(lines, label_map)
    labels, matrix, width = parsed
    if not labels:
        raise DataFormatError("empty dense stream")
    matrix.resize((len(labels), width), refcheck=False)
    return DenseDataset(np.array(labels), matrix)


def _write_rows(ds: DenseDataset, start: int, end: int, out) -> None:
    """Write rows [start, end), a mostly +0.0 row from its nonzero cells."""
    width = ds.num_features
    for lo in range(start, end, _WRITE_BLOCK_ROWS):
        rows = ds.features[lo:min(lo + _WRITE_BLOCK_ROWS, end)]
        nonzero = rows.view(np.int64) != 0  # -0.0, NaN and inf have bits set
        counts = np.count_nonzero(nonzero, axis=1)
        sparse = counts <= _SPARSE_ROW_SHARE * width
        nonzero &= sparse[:, None]
        row_of, cols = np.divmod(np.flatnonzero(nonzero), width)
        # the zeros before each nonzero cell: its column, at its row's first
        gaps = np.where(np.diff(row_of, prepend=-1) != 0, cols, np.diff(cols, prepend=-1) - 1)
        cells = list(map(repr, rows[nonzero].tolist()))
        cols, gaps, pos = cols.tolist(), gaps.tolist(), 0
        for label, row, is_sparse, stop in zip(
                ds.labels[lo:lo + len(rows)].tolist(), rows, sparse.tolist(),
                np.cumsum(counts * sparse).tolist()):  # stop: where its cells end
            if is_sparse:
                last = cols[stop - 1] if stop > pos else -1
                line = repr(label) + "".join([",0.0" * gap + "," + cell for gap, cell in zip(
                    gaps[pos:stop], cells[pos:stop])]) + ",0.0" * (width - 1 - last)
                pos = stop
            else:
                line = ",".join(map(repr, [label, *row.tolist()]))
            out.write(line)
            out.write("\n")


def _formatted_range(ds: DenseDataset, start: int, end: int):
    """The buffers a write child sends: the byte length, then the bytes."""
    text = io.TextIOWrapper(io.BytesIO(), encoding="ascii", newline="")  # the one copy of the text
    _write_rows(ds, start, end, text)
    data = text.detach().getbuffer()
    return [struct.pack("=q", len(data)), data]


def _relay(r: int | None, out, ds: DenseDataset, start: int, end: int) -> None:
    """Copy rows [start, end) from a write child's pipe to the seekable out.
    If the share is lost (see forks), cut what its child sent off out and
    write the rows here."""
    mark = out.tell()
    try:
        (size,) = struct.unpack("=q", forks._recv(r, bytearray(8)))
        while size:
            chunk = os.read(r, min(size, _RELAY_BYTES))
            if not chunk:
                raise EOFError("a range child sent a short result")
            out.write(chunk.decode("ascii"))
            size -= len(chunk)
    except EOFError:
        out.seek(mark)
        out.truncate()
        _write_rows(ds, start, end, out)


def write_dense(ds: DenseDataset, stream) -> None:
    """Write `label,f1,...,fF` lines, LF endings, shortest round-trip floats.

    On a seekable stream, a dataset of at least 2 * _MIN_WRITE_CELLS cells
    (rows * (features + 1)) is cut into one row range per usable core, none
    under _MIN_WRITE_CELLS cells, if this process may fork (POSIX, no other
    thread). Forked children format the ranges after the first while this
    process writes the first, then it relays their bytes in order, 64 KiB at
    a time. A lost range (see forks) is written here after its partial bytes
    are cut off, so the bytes are a serial write's on any text or binary
    stream. A stream that cannot seek (a pipe) is written serially. A row
    whose cells are mostly +0.0 (hashed text features) formats only its
    nonzero cells, with the same bytes.
    """
    with _text_lines(stream) as out:
        cells = ds.num_rows * (ds.num_features + 1)
        cores = forks._fork_cores() if out.seekable() else 1
        k = max(1, min(cores, cells // _MIN_WRITE_CELLS, ds.num_rows))
        cuts = [ds.num_rows * i // k for i in range(k + 1)]
        shares = [(ds, start, end) for start, end in zip(cuts[1:-1], cuts[2:])]
        with forks.forked(_formatted_range, shares) as children:
            _write_rows(ds, cuts[0], cuts[1], out)
            for r, (_, start, end) in zip(children.reads, shares):
                _relay(r, out, ds, start, end)
        out.flush()


def load_dense(path, label_map: str = "zero_one") -> DenseDataset:
    """parse_dense of the file at path, opened in binary mode, so a file of
    at least 2 MiB is parsed in byte ranges across the usable cores, with a
    fall back to the serial parse on any failure. A save_dense file reads
    back bit-identical, whether either side used ranges or not."""
    with open(path, "rb") as fh:
        return parse_dense(fh, label_map)


def save_dense(ds: DenseDataset, path) -> None:
    """write_dense to a file: 2 * 2**17 cells or more are formatted in row
    ranges across the usable cores, bytes unchanged, a lost range redone;
    mostly +0.0 rows format only their nonzero cells, bytes unchanged."""
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
    if not separation >= 0:  # NaN fails this too
        raise ConfigError(f"separation must be >= 0, got {separation}")
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
    raw = raw.strip()
    # no lowercase mapping shortens a string, so a longer cell is no sentinel
    return len(raw) <= _MISSING_MAX_LEN and raw.lower() in _MISSING_SENTINELS


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
        writer.writerows(frame.cells)  # csv writes None as an empty field
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
