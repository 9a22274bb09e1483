import gc
import io
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskbench import dataio
from deskbench.errors import ConfigError, DataFormatError

from helpers import load_parts
from oracles import manifest_json_oracle, parse_dense_oracle, write_dense_oracle


def as_stream(text: str) -> io.BytesIO:
    return io.BytesIO(text.encode("utf-8"))


def concat_datasets(parts: list[dataio.DenseDataset]) -> dataio.DenseDataset:
    return dataio.DenseDataset(
        np.concatenate([p.labels for p in parts]),
        np.vstack([p.features for p in parts]),
    )


class TestParseDense:
    def test_zero_one_identity(self):
        line = "1," + ",".join(["0"] * 2000) + "\n"
        ds = dataio.parse_dense(as_stream(line), 2000, "zero_one")
        assert ds.num_rows == 1
        assert ds.labels[0] == 1.0
        assert not ds.features.any()

    def test_plus_minus_one_sign_map(self):
        ds = dataio.parse_dense(as_stream("-1,0.5,-0.25\n"), 2, "plus_minus_one")
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
            dataio.parse_dense(as_stream("\n".join(lines) + "\n"), 2, "zero_one")

    def test_non_numeric_field_names_line_and_column(self):
        with pytest.raises(DataFormatError, match="line 2, column 3"):
            dataio.parse_dense(as_stream("1,0,0\n0,1,oops\n"), 2, "zero_one")

    def test_label_outside_alphabet(self):
        with pytest.raises(DataFormatError, match="alphabet"):
            dataio.parse_dense(as_stream("2,0,0\n"), 2, "zero_one")
        with pytest.raises(DataFormatError, match="alphabet"):
            dataio.parse_dense(as_stream("0,0,0\n"), 2, "plus_minus_one")

    def test_raw_labels_accept_targets(self):
        ds = dataio.parse_dense(as_stream("3.5,1,2\n-0.25,0,0\n"), 2, "raw")
        np.testing.assert_array_equal(ds.labels, [3.5, -0.25])

    def test_infers_width_from_first_line(self):
        ds = dataio.parse_dense(as_stream("1,1,2,3\n0,4,5,6\n"), None, "zero_one")
        assert ds.num_features == 3

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(3)
        ds = dataio.DenseDataset(
            (rng.random(20) > 0.5).astype(float), rng.standard_normal((20, 7))
        )
        buf = io.StringIO()
        dataio.write_dense(ds, buf)
        back = dataio.parse_dense(as_stream(buf.getvalue()), 7, "zero_one")
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.features, ds.features)


STREAMS = {
    "bytes": as_stream,
    "text": io.StringIO,
    "text-universal": lambda text: io.StringIO(text, newline=""),
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
    labels, bad fields, wrong widths and blank lines mixed in."""
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


def parse_outcome(parse, make_stream, text, num_features, label_map):
    """(labels, features, shape) bytes of a parse, or (type, message) of its error."""
    try:
        ds = parse(make_stream(text), num_features, label_map)
    except Exception as exc:  # both parsers must fail the same way
        return type(exc), str(exc)
    return ds.labels.tobytes(), ds.features.tobytes(), ds.features.shape


def assert_same_as_oracle(text, num_features, label_map, stream_kind):
    make_stream = STREAMS[stream_kind]
    assert parse_outcome(dataio.parse_dense, make_stream, text, num_features, label_map) \
        == parse_outcome(parse_dense_oracle, make_stream, text, num_features, label_map)


class TestParseDenseMatchesOracle:
    @given(dense_streams(), st.sampled_from(sorted(STREAMS)))
    @settings(max_examples=300, deadline=None)
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
            assert_same_as_oracle(buf.getvalue() + tail, None, label_map, "bytes")


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


class TestWriteDenseMatchesOracle:
    @given(dense_datasets())
    @settings(max_examples=200, deadline=None)
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
        back = dataio.parse_dense(bio, None, "zero_one")
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
            dataio.parse_dense(bio, None, "zero_one")
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
