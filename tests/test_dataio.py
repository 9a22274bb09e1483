import gc
import io
import os
import signal
import tempfile
import threading
import time
import tracemalloc
import warnings
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskbench import dataio, forks
from deskbench.errors import ConfigError, DataFormatError

from helpers import in_parent, load_parts
from oracles import manifest_json_oracle, parse_dense_oracle, write_dense_oracle


def as_stream(text) -> io.BytesIO:
    return io.BytesIO(text.encode("utf-8") if isinstance(text, str) else text)


@contextmanager
def forced_ranges(cores=3):
    """parse_dense cuts any regular file, however small, into `cores` ranges."""
    with mock.patch.object(dataio, "_MIN_RANGE_BYTES", 1), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cores))):
        yield


@contextmanager
def file_in_ranges(text):
    """The text (or bytes) in a file opened rb, parsed in three ranges."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "d.csv")
        path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
        with open(path, "rb") as fh, forced_ranges():
            yield fh


def concat_datasets(parts: list[dataio.DenseDataset]) -> dataio.DenseDataset:
    return dataio.DenseDataset(
        np.concatenate([p.labels for p in parts]),
        np.vstack([p.features for p in parts]),
    )


class TestParseDense:
    def test_zero_one_identity(self):
        line = "1," + ",".join(["0"] * 2000) + "\n"
        ds = dataio.parse_dense(as_stream(line), "zero_one")
        assert ds.num_rows == 1
        assert ds.labels[0] == 1.0
        assert not ds.features.any()

    def test_plus_minus_one_sign_map(self):
        ds = dataio.parse_dense(as_stream("-1,0.5,-0.25\n"), "plus_minus_one")
        assert ds.labels[0] == 0.0
        np.testing.assert_array_equal(ds.features[0], [0.5, -0.25])

    def test_malformed_line_names_line_number(self):
        # 12-line fixture, line 7 has a missing field
        lines = []
        for i in range(12):
            if i == 6:
                lines.append("1,0.0")
            else:
                lines.append(f"{i % 2},0.0,1.0")
        with pytest.raises(DataFormatError, match="line 7"):
            dataio.parse_dense(as_stream("\n".join(lines) + "\n"), "zero_one")

    def test_non_numeric_field_names_line_and_column(self):
        with pytest.raises(DataFormatError, match="line 2, column 3"):
            dataio.parse_dense(as_stream("1,0,0\n0,1,oops\n"), "zero_one")

    def test_label_outside_alphabet(self):
        with pytest.raises(DataFormatError, match="alphabet"):
            dataio.parse_dense(as_stream("2,0,0\n"), "zero_one")
        with pytest.raises(DataFormatError, match="alphabet"):
            dataio.parse_dense(as_stream("0,0,0\n"), "plus_minus_one")

    def test_raw_labels_accept_targets(self):
        ds = dataio.parse_dense(as_stream("3.5,1,2\n-0.25,0,0\n"), "raw")
        np.testing.assert_array_equal(ds.labels, [3.5, -0.25])

    def test_infers_width_from_first_line(self):
        ds = dataio.parse_dense(as_stream("1,1,2,3\n0,4,5,6\n"), "zero_one")
        assert ds.num_features == 3

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(3)
        ds = dataio.DenseDataset(
            (rng.random(20) > 0.5).astype(float), rng.standard_normal((20, 7))
        )
        buf = io.StringIO()
        dataio.write_dense(ds, buf)
        back = dataio.parse_dense(as_stream(buf.getvalue()), "zero_one")
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.features, ds.features)


STREAMS = {
    "bytes": as_stream,
    "text": io.StringIO,
    "text-universal": lambda text: io.StringIO(text, newline=""),
    "file-ranges": file_in_ranges,
}
GOOD_LABELS = {
    "zero_one": ["0", "1", "1.0", " 1 ", "-0.0", "0e5"],
    "plus_minus_one": ["-1", "+1", "1.0", " -1", "-1e0"],
    "raw": ["0", "-3.5", "1_0", "1e308", "-0.0"],
}
BAD_LABELS = ["2", "0.5", "1e999", "-inf", "nan", "x", ""]
GOOD_FIELDS = ["0", "1.5", "-2.25e-3", " 3 ", "\t4\t", "1_0", "-0.0", "1e308",
               "-1e308", "1e-320", "+.5", "\u0663"]
BAD_FIELDS = ["1e999", "-1e999", "inf", "-Infinity", "nan", "NaN", "", " ",
              "abc", "1e", "_1", "1__0", "0x10", "1.2.3", "1\x00"]


def rarely(draw, rate: int) -> bool:
    return draw(st.integers(0, rate - 1)) == 0


@st.composite
def dense_streams(draw):
    """(text, num_features, label_map): mostly valid rows, with rare bad
    labels, bad fields, wrong widths and blank lines mixed in; num_features
    is None or a width a caller expects, usually the rows' own."""
    label_map = draw(st.sampled_from(dataio.LABEL_MAPS))
    width = draw(st.integers(1, 4))
    good_field = st.one_of(
        st.sampled_from(GOOD_FIELDS),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
    )
    bad_field = st.one_of(
        st.sampled_from(BAD_FIELDS),
        st.text("0123456789.eE+-_ naif", max_size=6),
    )
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        if rarely(draw, 6):
            line = ""
        else:
            n = width + (draw(st.sampled_from([-1, 1])) if rarely(draw, 15) else 0)
            labels = BAD_LABELS if rarely(draw, 15) else GOOD_LABELS[label_map]
            fields = [draw(st.sampled_from(labels))]
            fields += [draw(bad_field if rarely(draw, 25) else good_field)
                       for _ in range(max(n, 0))]
            line = ",".join(fields)
        lines.append(line + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    num_features = None if draw(st.booleans()) else width + rarely(draw, 8)
    return "".join(lines), num_features, label_map


def parse_outcome(parse, make_stream, text):
    """(labels, features, shape) bytes of parse(stream), or (type, message) of its error."""
    try:
        with make_stream(text) as stream:
            ds = parse(stream)
    except Exception as exc:  # both parsers must fail the same way
        return type(exc), str(exc)
    return ds.labels.tobytes(), ds.features.tobytes(), ds.features.shape


def assert_same_as_oracle(text, num_features, label_map, stream_kind):
    """parse_dense, whose first line sets the width, gives the oracle's
    outcome. A caller that knows the width (num_features) compares it after
    the parse, as helpers.load_parts does: that accepts exactly what the
    oracle accepts with the width declared up front, with the same result."""
    make_stream = STREAMS[stream_kind]
    got = parse_outcome(lambda s: dataio.parse_dense(s, label_map), make_stream, text)
    assert got == parse_outcome(lambda s: parse_dense_oracle(s, None, label_map),
                                make_stream, text)
    if num_features is not None:
        declared = parse_outcome(lambda s: parse_dense_oracle(s, num_features, label_map),
                                 make_stream, text)
        width_ok = len(got) == 3 and got[2][1] == num_features
        assert declared == got if width_ok else len(declared) == 2


class TestParseDenseMatchesOracle:
    @given(dense_streams(), st.sampled_from(sorted(STREAMS)))
    @settings(max_examples=400, deadline=None)  # about 100 per stream kind
    def test_generated_streams(self, case, stream_kind):
        assert_same_as_oracle(*case, stream_kind)

    @pytest.mark.parametrize("text,num_features", [
        ("1,0.5,-0.0\r\n0, 1_0 ,1e308\r\n", 2),
        ("1,0.5\r\r0,2\r", None),
        ("\n\n1,1,2\n\n", None),
        ("1,inf,abc\n", 2),
        ("1,abc,inf\n", 2),
        ("1,1,nan,x\n", None),
        ("1,2,1\x00\n", 2),
        ("1,1e999,1\n", 2),
        ("1,1,\n", 2),
        ("1,1,2\n0,1\n", None),
        ("1,1,2\n", 3),
        ("1\n", None),
        ("", None),
        ("-1,2,3\n+1,-4,5\n", 2),
    ])
    def test_hand_written_cases(self, text, num_features):
        for label_map in dataio.LABEL_MAPS:
            for stream_kind in STREAMS:
                assert_same_as_oracle(text, num_features, label_map, stream_kind)


    @pytest.mark.parametrize("rows", [1, 15, 16, 17, 32, 33, 100])
    @pytest.mark.parametrize("tail", ["", "1,2,x\n", "1,2\n", "\n\n"])
    def test_rows_across_matrix_growth(self, rows, tail):
        rng = np.random.default_rng(rows)
        buf = io.StringIO()
        dataio.write_dense(dataio.DenseDataset(rng.integers(0, 2, rows).astype(float),
                                               rng.standard_normal((rows, 2))), buf)
        for label_map in ("zero_one", "raw"):
            for stream_kind in ("bytes", "file-ranges"):
                assert_same_as_oracle(buf.getvalue() + tail, None, label_map, stream_kind)


GOOD_ROWS = "1,0.5,2\n" * 5


class TestParseDenseRanges:
    """The range path: a regular file cut at line ends, ranges after the
    first parsed in forked children, any failure answered by the serial
    parse of the whole stream."""

    @pytest.mark.parametrize("tail", [
        "1,0.5,x\n",                 # bad field
        "1,0.5\n",                   # width change
        "1,0.5,2,3\n",
        "1,0.5,2\r0,1,x\n",          # lone CR, then a bad line
        "1,0.5,2\r0,1,1\r",           # lone CRs, valid
        "1,0.5,2\r\n0,1,1\r\n",
        "\n" * 30,                    # blank-only later ranges
        "\ufeff1,0.5,2\n",           # BOM
        "1,\u0663,2\n" * 3,          # non-ASCII digits
        "2,0.5,2\n",
        "1,1e999,2\n",
        b"1,0.5,\xff\n",             # invalid UTF-8 byte
        b"1,0.5,\xe2\x82\n",         # truncated UTF-8 sequence
    ])
    @pytest.mark.parametrize("num_features", [None, 2])
    def test_item_in_a_later_range(self, tail, num_features):
        head = GOOD_ROWS if isinstance(tail, str) else GOOD_ROWS.encode()
        data = head + tail
        with file_in_ranges(data) as fh:
            cuts = dataio._range_cuts(fh)
        assert len(cuts) == 4 and len(GOOD_ROWS) >= cuts[1]  # the tail is past range 0
        for label_map in dataio.LABEL_MAPS:
            assert_same_as_oracle(data, num_features, label_map, "file-ranges")

    @pytest.mark.parametrize("text", [
        "\n" * 40 + "1,0.5,2\n1,0.5,2\n",  # blank-only first range
        "\n" * 40,
        "x,0.5,2\n" + GOOD_ROWS,             # bad line in the parent's range
    ])
    def test_blank_or_bad_first_range(self, text):
        for num_features in (None, 2):
            assert_same_as_oracle(text, num_features, "zero_one", "file-ranges")

    def test_valid_file_takes_the_ranges(self, fork_pids):
        text = "0,1,2\n" + GOOD_ROWS * 3
        with file_in_ranges(text) as fh:
            fh.readline()  # the ranges start at the stream's position
            labels, matrix, width = dataio._parse_ranges(fh, "zero_one")
            assert fh.read() == b""  # where a serial parse leaves it
        assert len(fork_pids) == 2
        serial = as_stream(text)
        serial.readline()
        ref = parse_dense_oracle(serial, None, "zero_one")
        assert bytes(labels) == ref.labels.tobytes()
        assert matrix[:len(labels)].tobytes() == ref.features.tobytes()

    def assert_serial_result(self, text):
        with file_in_ranges(text) as fh:
            ds = dataio.parse_dense(fh, "zero_one")
        ref = parse_dense_oracle(as_stream(text), None, "zero_one")
        assert ds.features.tobytes() == ref.features.tobytes()
        assert ds.labels.tobytes() == ref.labels.tobytes()

    def test_child_exit_gives_serial_result(self, monkeypatch, fork_pids):
        parse_range = dataio._parse_range
        monkeypatch.setattr(dataio, "_parse_range", lambda *args: parse_range(*args)
                            if in_parent() else os._exit(1))
        self.assert_serial_result(GOOD_ROWS * 3)
        assert len(fork_pids) == 2

    def test_child_failing_after_a_full_send_gives_serial_parse(self, monkeypatch, fork_pids):
        exit_, text_lines, serial = os._exit, dataio._text_lines, []
        monkeypatch.setattr(os, "_exit", lambda code: exit_(1))
        monkeypatch.setattr(dataio, "_text_lines",
                            lambda stream: serial.append(1) or text_lines(stream))
        self.assert_serial_result(GOOD_ROWS * 3)
        assert len(fork_pids) == 2 and serial == [1]

    def test_child_killed_mid_send_gives_serial_result(self, monkeypatch, fork_pids):
        send = forks._send

        def dying_send(fd, data):
            view = memoryview(data).cast("B")
            if len(view) <= 16:
                return send(fd, view)
            send(fd, view[:len(view) // 2])
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(forks, "_send", dying_send)
        self.assert_serial_result(GOOD_ROWS * 3)
        assert len(fork_pids) == 2

    def test_fork_refused_gives_serial_result(self, refused_fork, fork_pids):
        self.assert_serial_result(GOOD_ROWS * 3)
        assert len(fork_pids) == refused_fork

    def test_parent_range_exception_gives_serial_result(self, monkeypatch, fork_pids):
        parse_range = dataio._parse_range

        def failing(*args):
            if in_parent():
                raise MemoryError
            return parse_range(*args)

        monkeypatch.setattr(dataio, "_parse_range", failing)
        self.assert_serial_result(GOOD_ROWS * 3)
        assert len(fork_pids) == 2

    @pytest.mark.parametrize("where", ["_parse_range", "_recv"])
    def test_interrupt_stops_children_and_reraises(self, monkeypatch, fork_pids, where):
        parse_range = dataio._parse_range

        def child_hangs(*args):
            if not in_parent():
                time.sleep(60)
            return parse_range(*args)

        monkeypatch.setattr(dataio, "_parse_range", child_hangs)
        owner = forks if where == "_recv" else dataio
        real = getattr(owner, where)

        def interrupted(*args):
            if in_parent():
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(owner, where, interrupted)
        started = time.monotonic()
        with file_in_ranges(GOOD_ROWS * 3) as fh, pytest.raises(KeyboardInterrupt):
            dataio.parse_dense(fh, "zero_one")
        assert time.monotonic() - started < 30  # killed, not waited for
        assert len(fork_pids) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_other_thread_keeps_the_parse_serial(self, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside a thread"))
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            self.assert_serial_result(GOOD_ROWS * 3)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_pipe_is_parsed_serially(self, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for a pipe"))
        r, w = os.pipe()
        with open(r, "rb") as fh, forced_ranges():
            with open(w, "wb") as out:
                out.write(GOOD_ROWS.encode())
            ds = dataio.parse_dense(fh, "zero_one")
        ref = parse_dense_oracle(as_stream(GOOD_ROWS), None, "zero_one")
        assert ds.features.tobytes() == ref.features.tobytes()


SPECIAL_VALUES = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300, 0.1, 1e16,
                  1.7976931348623157e308, float("nan"), float("inf"), float("-inf")]


@st.composite
def dense_datasets(draw):
    """Matrices of special and arbitrary floats, zero rows or columns included."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 5))
    value = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(width=64))
    labels = draw(st.lists(value, min_size=rows, max_size=rows))
    cells = draw(st.lists(value, min_size=rows * cols, max_size=rows * cols))
    return dataio.DenseDataset(np.array(labels, dtype=np.float64),
                               np.array(cells, dtype=np.float64).reshape(rows, cols))


NONZERO_SPECIALS = [v for v in SPECIAL_VALUES if str(v) != "0.0"]  # all but +0.0


@st.composite
def sparse_datasets(draw):
    """Mostly +0.0 rows in C, Fortran or column-strided ([:, ::2]) layout. Each
    row holds special or arbitrary floats at drawn columns; one row has as many
    as _SPARSE_ROW_SHARE of its width allows (exactly that share at widths 0,
    8 and 40) and one has a cell more, so both of _write_rows' branches run."""
    width = draw(st.sampled_from([0, 1, 2, 7, 8, 40]))
    most = int(dataio._SPARSE_ROW_SHARE * width)
    counts = [most, min(most + 1, width)]
    counts += draw(st.lists(st.integers(0, min(width, most + 2)), max_size=4))
    value = st.one_of(st.sampled_from(NONZERO_SPECIALS), st.floats(width=64))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    table = np.zeros((len(counts), 2 * width))
    view = table[:, ::2] if layout == "strided" else table[:, :width]
    for i, k in enumerate(counts):
        cols = draw(st.permutations(range(width)))[:k]
        view[i, cols] = draw(st.lists(value, min_size=k, max_size=k))
    arrange = {"C": np.ascontiguousarray, "F": np.asfortranarray}.get(layout, np.asarray)
    labels = draw(st.lists(st.sampled_from(SPECIAL_VALUES), min_size=len(counts),
                           max_size=len(counts)))
    return dataio.DenseDataset(np.array(labels), arrange(view))


class TestWriteDenseMatchesOracle:
    @given(st.one_of(dense_datasets(), sparse_datasets()))
    @settings(max_examples=300, deadline=None)
    def test_bytes_identical(self, ds):
        for make in (io.StringIO, io.BytesIO):
            mine, theirs = make(), make()
            dataio.write_dense(ds, mine)
            write_dense_oracle(ds, theirs)
            assert mine.getvalue() == theirs.getvalue()

    def test_zero_columns_no_trailing_comma(self):
        buf = io.StringIO()
        dataio.write_dense(dataio.DenseDataset(np.array([1.0, -0.0]), np.zeros((2, 0))), buf)
        assert buf.getvalue() == "1.0\n-0.0\n"


@contextmanager
def forced_write_ranges(cores=3):
    """write_dense cuts any dataset into up to `cores` row ranges."""
    with mock.patch.object(dataio, "_MIN_WRITE_CELLS", 1), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cores))):
        yield


def oracle_text(ds) -> str:
    buf = io.StringIO()
    write_dense_oracle(ds, buf)
    return buf.getvalue()


def cut_dataset(rows=7, cols=3) -> dataio.DenseDataset:
    """Normal draws with the special values on both sides of each cut of a
    three-range write of 7 rows (cuts after rows 2 and 4)."""
    rng = np.random.default_rng(rows)
    table = rng.standard_normal((rows, cols + 1))
    edges = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e16, 1e-05]
    for i in range(1, min(rows, 5)):
        table[i] = np.resize(np.roll(edges, i), cols + 1)
    return dataio.DenseDataset(table[:, 0], table[:, 1:])


def ranged_write(ds, stream, cores=3):
    """Write ds to stream in forced ranges; return what the stream holds."""
    with forced_write_ranges(cores):
        dataio.write_dense(ds, stream)
    value = stream.getvalue()
    assert stream.tell() == len(value)
    return value.decode("utf-8") if isinstance(value, bytes) else value


class TestWriteDenseRanges:
    """The row-range path: ranges after the first formatted in forked
    children and relayed in order, a failed child's range written by the
    parent, or the write raises."""

    @pytest.mark.parametrize("make", [io.StringIO, io.BytesIO])
    def test_special_values_on_the_cuts(self, make, fork_pids):
        ds = cut_dataset()
        assert ranged_write(ds, make()) == oracle_text(ds)
        assert len(fork_pids) == 2

    def test_files(self, tmp_path, fork_pids):
        ds, path = cut_dataset(), tmp_path / "d.csv"
        with forced_write_ranges():
            dataio.save_dense(ds, path)
            with open(tmp_path / "e.csv", "wb") as fh:
                dataio.write_dense(ds, fh)
                assert fh.tell() == path.stat().st_size
        assert path.read_bytes() == (tmp_path / "e.csv").read_bytes() \
            == oracle_text(ds).encode()
        assert len(fork_pids) == 4

    @given(dense_datasets())
    @settings(max_examples=25, deadline=None)
    def test_generated_datasets(self, ds):
        assert ranged_write(ds, io.StringIO()) == oracle_text(ds)

    def test_mostly_zero_rows(self, fork_pids):
        features = np.zeros((len(NONZERO_SPECIALS), 8))
        for i, value in enumerate(NONZERO_SPECIALS):
            features[i, [i % 8, (i + 3) % 8]] = value, -value
        features[3, 0] = 0.1  # three nonzero cells: over the sparse share of 8
        ds = dataio.DenseDataset(np.arange(len(features), dtype=float), features)
        with mock.patch.object(dataio, "_WRITE_BLOCK_ROWS", 2):  # blocks cross the range cuts
            assert ranged_write(ds, io.BytesIO()) == oracle_text(ds)
        assert len(fork_pids) == 2

    def test_zero_feature_columns(self, fork_pids):
        ds = dataio.DenseDataset(np.array([1.0, -0.0, 5e-324, 0.0, 1e16]), np.zeros((5, 0)))
        assert ranged_write(ds, io.BytesIO()) == "1.0\n-0.0\n5e-324\n0.0\n1e+16\n"
        assert len(fork_pids) == 2

    def test_fewer_rows_than_cores(self, fork_pids):
        ds = cut_dataset(rows=2)
        assert ranged_write(ds, io.StringIO(), cores=3) == oracle_text(ds)
        assert len(fork_pids) == 1

    def test_child_exit_before_its_length(self, monkeypatch, fork_pids):
        monkeypatch.setattr(dataio, "_formatted_range", lambda *args: os._exit(1))
        ds = cut_dataset()
        assert ranged_write(ds, io.BytesIO()) == oracle_text(ds)
        assert len(fork_pids) == 2

    @pytest.fixture()
    def killed_mid_send(self, monkeypatch):
        send = forks._send

        def dying_send(fd, data):
            view = memoryview(data).cast("B")
            if len(view) <= 8:
                return send(fd, view)
            send(fd, view[:len(view) // 2])
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(forks, "_send", dying_send)

    def test_child_killed_mid_send_on_a_file(self, killed_mid_send, tmp_path, fork_pids):
        ds = cut_dataset()
        with forced_write_ranges():
            dataio.save_dense(ds, tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_bytes() == oracle_text(ds).encode()
        assert len(fork_pids) == 2

    def test_pipe_is_written_serially(self, killed_mid_send, fork_pids):
        ds = cut_dataset()
        r, w = os.pipe()  # the few hundred bytes fit in the pipe's buffer
        with open(r, "rb") as fh, forced_write_ranges():
            with open(w, "wb") as out:
                dataio.write_dense(ds, out)
            assert fh.read() == oracle_text(ds).encode()
        assert fork_pids == []

    def test_fork_refused_writes_the_range_here(self, refused_fork, fork_pids, tmp_path):
        ds = cut_dataset()
        with forced_write_ranges():
            dataio.save_dense(ds, tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_bytes() == oracle_text(ds).encode()
        assert len(fork_pids) == refused_fork

    @pytest.mark.parametrize("where", ["_write_rows", "_recv"])
    def test_interrupt_kills_children_and_reraises(self, monkeypatch, fork_pids, where):
        monkeypatch.setattr(dataio, "_formatted_range", lambda *args: time.sleep(60))
        owner = forks if where == "_recv" else dataio
        real = getattr(owner, where)

        def interrupted(*args):
            if in_parent():
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(owner, where, interrupted)
        started = time.monotonic()
        with forced_write_ranges(), pytest.raises(KeyboardInterrupt):
            dataio.write_dense(cut_dataset(), io.StringIO())
        assert time.monotonic() - started < 30  # killed, not waited for
        assert len(fork_pids) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_other_thread_keeps_the_write_serial(self, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside a thread"))
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            ds = cut_dataset()
            assert ranged_write(ds, io.StringIO()) == oracle_text(ds)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_rating_features_shape_stays_serial(self, monkeypatch):
        # features.csv of the rating flow: 500 x (1 + 258), mostly zeros
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked a small write"))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        rng = np.random.default_rng(259)
        features = np.where(rng.random((500, 258)) < 0.04, rng.random((500, 258)), 0.0)
        ds = dataio.DenseDataset(rng.uniform(1, 10, 500), features)
        out = io.StringIO()
        dataio.write_dense(ds, out)
        assert out.getvalue() == oracle_text(ds)


class TestParseDenseMemory:
    def test_load_peak_below_one_and_a_half_matrices(self, tmp_path):
        ds = dataio.generate_synthetic(4000, 200, 1.0, seed=8)
        dataio.save_dense(ds, tmp_path / "d.csv")
        tracemalloc.start()
        try:
            back = dataio.load_dense(tmp_path / "d.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        # one growing matrix, not a list of rows and then their vstack
        assert peak < 1.5 * ds.features.nbytes

    @pytest.mark.parametrize("rows", [4097, 8193])
    def test_load_peak_just_past_a_capacity_step(self, tmp_path, rows):
        # one-digit fields: split returns cached one-character strings, so
        # tracing stays cheap and the matrix dominates what is traced
        table = np.random.default_rng(rows).integers(0, 10, size=(rows, 201))
        table[:, 0] %= 2
        text = np.full((rows, 402), ord(","), dtype=np.uint8)
        text[:, 0::2] = table + ord("0")
        text[:, -1] = ord("\n")
        (tmp_path / "d.csv").write_bytes(text.tobytes())
        tracemalloc.start()
        try:
            back = dataio.load_dense(tmp_path / "d.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back.features, table[:, 1:])
        # a doubled matrix would hold nearly two
        assert peak < 1.3 * back.features.nbytes


class TestGenerateSynthetic:
    def test_deterministic(self):
        a = dataio.generate_synthetic(100, 5, 0.0, seed=7)
        b = dataio.generate_synthetic(100, 5, 0.0, seed=7)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.features, b.features)

    def test_classes_roughly_balanced(self):
        ds = dataio.generate_synthetic(100, 5, 0.0, seed=7)
        ones = int(ds.labels.sum())
        assert ones >= 30 and (100 - ones) >= 30

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            dataio.generate_synthetic(1, 5, 0.0, seed=1)
        with pytest.raises(ConfigError):
            dataio.generate_synthetic(10, 0, 0.0, seed=1)

    def test_rejects_nan_separation(self):
        with pytest.raises(ConfigError, match="separation"):
            dataio.generate_synthetic(10, 2, float("nan"), seed=1)


class TestSplitParts:
    def test_exact_division(self):
        ds = dataio.generate_synthetic(100, 4, 1.0, seed=2)
        parts, manifest = dataio.split_parts(ds, 5, shuffle_seed=0)
        assert [p.num_rows for p in parts] == [20] * 5
        assert manifest.num_rows == 100

    def test_remainder_rule(self):
        ds = dataio.generate_synthetic(101, 4, 1.0, seed=2)
        parts, _ = dataio.split_parts(ds, 5, shuffle_seed=0)
        assert sorted(p.num_rows for p in parts) == [20, 20, 20, 20, 21]

    def test_k_exceeding_rows_rejected(self):
        ds = dataio.generate_synthetic(4, 2, 0.0, seed=1)
        with pytest.raises(ConfigError):
            dataio.split_parts(ds, 5, shuffle_seed=0)

    @given(st.integers(2, 10), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_conserves_rows(self, k, seed):
        ds = dataio.generate_synthetic(53, 3, 1.0, seed=11)
        parts, _ = dataio.split_parts(ds, k, shuffle_seed=seed)
        merged = concat_datasets(parts)
        all_in = np.column_stack([ds.labels, ds.features])
        all_out = np.column_stack([merged.labels, merged.features])
        in_sorted = all_in[np.lexsort(all_in.T[::-1])]
        out_sorted = all_out[np.lexsort(all_out.T[::-1])]
        np.testing.assert_array_equal(in_sorted, out_sorted)

    def test_manifest_round_trip(self, tmp_path):
        ds = dataio.generate_synthetic(30, 3, 1.0, seed=9)
        parts, manifest = dataio.split_parts(ds, 3, shuffle_seed=1, name="toy")
        path = dataio.save_parts(parts, manifest, tmp_path)
        loaded_manifest, loaded_parts = load_parts(path)
        assert loaded_manifest == manifest
        merged = concat_datasets(loaded_parts)
        assert merged.num_rows == 30

    def test_manifest_json_keys(self):
        ds = dataio.generate_synthetic(10, 2, 0.0, seed=5)
        _, manifest = dataio.split_parts(ds, 2, shuffle_seed=3, name="t")
        import json

        obj = json.loads(manifest.to_json())
        assert set(obj) == {"name", "num_rows", "num_features", "parts",
                            "label_kind", "seed"}

    @given(st.text(max_size=8), st.integers(0, 10**6), st.integers(0, 10**4),
           st.lists(st.text(max_size=8), min_size=1, max_size=4),
           st.sampled_from(["binary", "continuous"]), st.none() | st.integers(0, 2**64))
    @settings(max_examples=60, deadline=None)
    def test_manifest_json_matches_oracle(self, name, rows, features, parts, label_kind, seed):
        manifest = dataio.DatasetManifest(name, rows, features, parts, label_kind, seed)
        assert manifest.to_json() == manifest_json_oracle(manifest)


class TestParseTabular:
    def test_quoted_comma(self):
        frame = dataio.parse_tabular(
            as_stream('a,b\n1,"x,y"\n'), [("a", "number"), ("b", "text")]
        )
        assert frame.cells == [[1.0, "x,y"]]

    def test_empty_number_cell_is_missing(self):
        frame = dataio.parse_tabular(
            as_stream("a,b\n,hello\n"), [("a", "number"), ("b", "text")]
        )
        assert frame.cells[0][0] is None

    def test_na_sentinels(self):
        frame = dataio.parse_tabular(
            as_stream("a,b\n1,NA\n2,n/a\n3,ok\n"), [("a", "number"), ("b", "text")]
        )
        assert [row[1] for row in frame.cells] == [None, None, "ok"]

    @pytest.mark.parametrize("cell, missing", [
        ("  N/A ", True), ("na", True), ("nA", True), (" \t", True), ("n/a\u00a0", True),
        ("N/A.", False), (" nan ", False), ("n/ab", False), ("\u0130na", False), ("n a", False),
    ])
    def test_sentinel_cells(self, cell, missing):
        frame = dataio.parse_tabular(as_stream(f"a\n{cell}\n"), [("a", "text")])
        assert frame.cells[0][0] == (None if missing else cell)

    def test_missing_header_names_listed(self):
        with pytest.raises(DataFormatError, match=r"\['b', 'c'\]"):
            dataio.parse_tabular(
                as_stream("a\n1\n"),
                [("a", "number"), ("b", "text"), ("c", "text")],
            )

    @pytest.mark.parametrize("raw", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_number_cell_rejected(self, raw):
        with pytest.raises(DataFormatError, match=rf"line 3, column 'a': non-finite '{raw}'"):
            dataio.parse_tabular(as_stream(f"a,b\n1,x\n{raw},y\n"),
                                 [("a", "number"), ("b", "text")])

    def test_doubled_quotes(self):
        frame = dataio.parse_tabular(
            as_stream('t\n"say ""hi"""\n'), [("t", "text")]
        )
        assert frame.cells == [['say "hi"']]

    def test_tabular_round_trip(self):
        frame = dataio.TabularFrame(
            [("name", "text"), ("score", "number")],
            [["a,b", 1.5], [None, None], ['q"q', 3.0]],
        )
        buf = io.StringIO()
        dataio.write_tabular(frame, buf)
        back = dataio.parse_tabular(
            as_stream(buf.getvalue()), [("name", "text"), ("score", "number")]
        )
        assert back.cells == frame.cells


class TestCallerStreams:
    """The parse and write functions leave a caller's binary stream open."""

    SCHEMA = [("name", "text"), ("score", "number")]

    def test_dense_write_then_parse_keeps_bytes_io_open(self):
        ds = dataio.generate_synthetic(5, 3, 1.0, seed=4)
        bio = io.BytesIO()
        dataio.write_dense(ds, bio)
        gc.collect()
        assert not bio.closed
        written = bio.getvalue()
        bio.seek(0)
        back = dataio.parse_dense(bio, "zero_one")
        gc.collect()
        assert not bio.closed
        bio.seek(0)
        assert bio.read() == written
        np.testing.assert_array_equal(back.features, ds.features)

    def test_tabular_write_then_parse_keeps_bytes_io_open(self):
        frame = dataio.TabularFrame(self.SCHEMA, [["a,b", 1.5], [None, None]])
        bio = io.BytesIO()
        dataio.write_tabular(frame, bio)
        gc.collect()
        assert not bio.closed
        written = bio.getvalue()
        bio.seek(0)
        back = dataio.parse_tabular(bio, self.SCHEMA)
        gc.collect()
        assert not bio.closed
        bio.seek(0)
        assert bio.read() == written
        assert back.cells == frame.cells

    def test_failed_parse_keeps_bytes_io_open(self):
        bio = as_stream("1,0.5\n0,x\n")
        with pytest.raises(DataFormatError):
            dataio.parse_dense(bio, "zero_one")
        gc.collect()
        assert not bio.closed

    def test_file_loads_warn_nothing(self, tmp_path):
        dataio.save_dense(dataio.generate_synthetic(5, 3, 1.0, seed=4), tmp_path / "d.csv")
        dataio.save_tabular(dataio.TabularFrame(self.SCHEMA, [["x", 1.0]]), tmp_path / "t.csv")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dataio.load_dense(tmp_path / "d.csv")
            dataio.load_tabular(tmp_path / "t.csv", self.SCHEMA)
            gc.collect()
        assert [str(w.message) for w in caught] == []


class TestTake:
    def test_result_owns_one_fresh_copy(self):
        ds = dataio.generate_synthetic(2000, 100, 1.0, seed=6)
        rows = np.arange(ds.num_rows)[::-1]
        tracemalloc.start()
        try:
            sub = ds.take(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not np.shares_memory(sub.features, ds.features)
        assert not np.shares_memory(sub.labels, ds.labels)
        np.testing.assert_array_equal(sub.features, ds.features[rows])
        np.testing.assert_array_equal(sub.labels, ds.labels[rows])
        # one (rows x features) array, not a gather and then a copy of it
        assert peak < 1.5 * ds.features.nbytes


class TestRowView:
    def test_reads_the_rows_of_take(self):
        ds = dataio.generate_synthetic(50, 4, 1.0, seed=7)
        rows = np.array([9, 2, 40, 3])
        view, copy = dataio.RowView(ds, rows), ds.take(rows)
        assert (view.num_rows, view.num_features) == (4, 4)
        np.testing.assert_array_equal(view.labels, copy.labels)
        np.testing.assert_array_equal(view.features, copy.features)
        assert view.is_binary() and copy.is_binary()
        assert not np.shares_memory(view.features, ds.features)
        X, picked = dataio.matrix_rows(view)
        assert X is ds.features and picked is rows
        X, picked = dataio.matrix_rows(ds)
        assert X is ds.features and picked.tolist() == list(range(50))

    def test_is_binary_reads_only_its_rows(self):
        ds = dataio.DenseDataset(np.array([0.0, 1.0, 2.5]), np.zeros((3, 2)))
        assert dataio.RowView(ds, np.array([1, 0])).is_binary()
        assert not dataio.RowView(ds, np.array([2])).is_binary()


class TestCleanCurrency:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("$1,234", 1234.0),
            ("ITL 45,000", 45000.0),
            ("n/a", None),
            (" $ 12.50 ", 12.5),
            ("USD1234", 1234.0),
            ("nan", None),
            ("garbage words", None),
            ("$1e999", None),
            ("-$1e999", None),
        ],
    )
    def test_conversions(self, raw, expected):
        frame = dataio.TabularFrame([("budget", "text")], [[raw]])
        cleaned = dataio.clean_currency(frame, ["budget"])
        assert cleaned.kind_of("budget") == "number"
        assert cleaned.cells[0][0] == expected

    def test_unknown_column(self):
        frame = dataio.TabularFrame([("a", "text")], [["1"]])
        with pytest.raises(DataFormatError):
            dataio.clean_currency(frame, ["nope"])

    def test_non_text_column_rejected(self):
        frame = dataio.TabularFrame([("a", "number")], [[1.0]])
        with pytest.raises(DataFormatError):
            dataio.clean_currency(frame, ["a"])
