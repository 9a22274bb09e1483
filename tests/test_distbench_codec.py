"""Wire codec tests: bit-exact round trips, frozen frames, fuzz safety."""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskbench.distbench import codec
from deskbench.errors import ProtocolError

import oracles


def frame_of(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


class TestRoundTrips:
    def test_hello(self):
        frame = codec.unpack(codec.pack_hello(7, 123456, 2000)[4:])
        assert frame.kind == "hello"
        assert frame.data == {"worker_id": 7, "num_rows": 123456,
                              "num_features": 2000}
        assert frame.wire_size == 21

    def test_config(self):
        raw = codec.pack_config("svm", 40, 99, 1e-4, 0.05)
        frame = codec.unpack(raw[4:])
        assert frame.kind == "config"
        assert frame.data["algo"] == "svm"
        assert frame.data["round_count"] == 40
        assert frame.data["seed"] == 99
        assert frame.data["lambda_"] == 1e-4
        assert frame.data["lr"] == 0.05
        assert frame.wire_size == 34

    def test_params_bit_exact(self):
        values = np.array([0.1, -0.0, 1e-300, -1e300, np.pi])
        frame = codec.unpack(codec.pack_params(3, values)[4:])
        assert frame.kind == "params"
        assert frame.data["round"] == 3
        assert frame.data["count"] == 5
        assert np.array_equal(frame.data["values"], values)
        # -0.0 preserved with its sign bit
        assert np.signbit(frame.data["values"][1])

    def test_update_bit_exact(self):
        values = np.linspace(-1, 1, 17)
        frame = codec.unpack(codec.pack_update(9, 4321, values)[4:])
        assert frame.kind == "update"
        assert frame.data["round"] == 9
        assert frame.data["sample_count"] == 4321
        assert np.array_equal(frame.data["values"], values)

    def test_two_thousand_dim_round_trip(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=2001)
        out = codec.unpack(codec.pack_params(0, values)[4:]).data["values"]
        back = codec.unpack(codec.pack_update(0, 10, out)[4:]).data["values"]
        assert np.array_equal(back, values)

    def test_done(self):
        frame = codec.unpack(codec.pack_done()[4:])
        assert frame.kind == "done"
        assert frame.data == {}
        assert frame.wire_size == 5

    def test_error_unicode(self):
        msg = "part déchiré: λ=0.5"
        frame = codec.unpack(codec.pack_error(msg)[4:])
        assert frame.kind == "error"
        assert frame.data["message"] == msg


class TestFrozenBytes:
    def test_hello_wire_bytes(self):
        expected = (b"\x00\x00\x00\x11"              # payload length 17
                    b"\x01"                          # HELLO
                    b"\x00\x00\x00\x01"              # worker_id 1
                    b"\x00\x00\x00\x00\x00\x00\x00\x02"  # num_rows 2
                    b"\x00\x00\x00\x03")             # num_features 3
        assert codec.pack_hello(1, 2, 3) == expected

    def test_config_wire_bytes(self):
        expected = (b"\x00\x00\x00\x1e"              # payload length 30
                    b"\x02"                          # CONFIG
                    b"\x01"                          # algo logistic
                    b"\x00\x00\x00\x05"              # rounds 5
                    b"\x00\x00\x00\x00\x00\x00\x00\x07"  # seed 7
                    b"\x00\x00\x00\x00\x00\x00\xe0\x3f"  # 0.5 f64 LE
                    b"\x9a\x99\x99\x99\x99\x99\xb9\x3f")  # 0.1 f64 LE
        assert codec.pack_config("logistic", 5, 7, 0.5, 0.1) == expected

    def test_params_header_is_big_endian(self):
        raw = codec.pack_params(1, [1.0])
        assert raw[:4] == b"\x00\x00\x00\x11"
        assert raw[4] == codec.T_PARAMS
        assert raw[5:9] == b"\x00\x00\x00\x01"   # round
        assert raw[9:13] == b"\x00\x00\x00\x01"  # count
        assert raw[13:] == b"\x00\x00\x00\x00\x00\x00\xf0\x3f"  # 1.0 LE


class TestSizes:
    def test_params_frame_size_matches_bytes(self):
        for count in (0, 1, 17, 2001):
            raw = codec.pack_params(0, np.zeros(count))
            assert len(raw) == codec.params_frame_size(count)

    def test_update_frame_size_matches_bytes(self):
        for count in (0, 5, 201):
            raw = codec.pack_update(0, 1, np.zeros(count))
            assert len(raw) == codec.update_frame_size(count)

    def test_frame_size_formula(self):
        assert codec.frame_size(0) == 5
        assert codec.frame_size(29) == 34


class TestMalformed:
    def test_empty_payload(self):
        with pytest.raises(ProtocolError):
            codec.unpack(b"")

    def test_unknown_type(self):
        with pytest.raises(ProtocolError, match="unknown frame type"):
            codec.unpack(b"\x99abc")

    def test_done_with_body(self):
        with pytest.raises(ProtocolError):
            codec.unpack(b"\x05junk")

    def test_truncated_hello(self):
        with pytest.raises(ProtocolError):
            codec.unpack(b"\x01\x00\x00")

    def test_config_unknown_algo_code(self):
        raw = bytearray(codec.pack_config("svm", 1, 0, 0.0, 0.0)[4:])
        raw[1] = 0x7F
        with pytest.raises(ProtocolError, match="algorithm code"):
            codec.unpack(bytes(raw))

    def test_params_count_mismatch(self):
        body = struct.pack(">II", 0, 4) + b"\x00" * 8  # claims 4 floats, has 1
        with pytest.raises(ProtocolError):
            codec.unpack(b"\x03" + body)

    def test_error_frame_bad_utf8(self):
        with pytest.raises(ProtocolError, match="utf-8"):
            codec.unpack(b"\x00\xff\xfe\xfd")

    @pytest.mark.parametrize("worker_id", [-1, 2**32])
    def test_unpackable_field_is_a_protocol_error(self, worker_id):
        with pytest.raises(ProtocolError, match="hello"):
            codec.pack_hello(worker_id, 10, 3)

    def test_oversize_pack_rejected(self):
        too_many = (codec.MAX_FRAME // 8) + 1
        with pytest.raises(ProtocolError, match="exceeds"):
            codec.pack_params(0, np.zeros(too_many))

    def test_oversize_header_rejected_without_reading_body(self):
        stream = io.BytesIO(struct.pack(">I", codec.MAX_FRAME + 1))
        with pytest.raises(ProtocolError, match="exceeds"):
            codec.read_frame(stream)


class TestReadFrame:
    def test_sequential_frames_then_clean_eof(self):
        stream = io.BytesIO(codec.pack_hello(1, 2, 3) + codec.pack_done())
        assert codec.read_frame(stream).kind == "hello"
        assert codec.read_frame(stream).kind == "done"
        assert codec.read_frame(stream) is None

    def test_truncated_header(self):
        with pytest.raises(ProtocolError, match="header"):
            codec.read_frame(io.BytesIO(b"\x00\x00"))

    def test_truncated_payload(self):
        raw = codec.pack_hello(1, 2, 3)
        with pytest.raises(ProtocolError, match="payload"):
            codec.read_frame(io.BytesIO(raw[:-3]))

    def test_zero_length_frame(self):
        with pytest.raises(ProtocolError, match="empty"):
            codec.read_frame(io.BytesIO(struct.pack(">I", 0)))

    @settings(deadline=None, max_examples=200)
    @given(st.binary(min_size=0, max_size=64))
    def test_fuzzed_payload_never_crashes(self, payload):
        try:
            frame = codec.unpack(payload)
        except ProtocolError:
            return
        assert frame.kind in {kind for kind, _, _ in codec.LAYOUTS.values()}

    @settings(deadline=None, max_examples=200)
    @given(st.binary(min_size=0, max_size=80))
    def test_fuzzed_stream_never_crashes(self, raw):
        stream = io.BytesIO(raw)
        try:
            while codec.read_frame(stream) is not None:
                pass
        except ProtocolError:
            pass

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1),
           st.lists(st.floats(allow_nan=False, width=64), max_size=30))
    def test_update_round_trip_property(self, round_, samples, values):
        frame = codec.unpack(codec.pack_update(round_, samples, values)[4:])
        assert frame.data["round"] == round_
        assert frame.data["sample_count"] == samples
        assert np.array_equal(frame.data["values"],
                              np.asarray(values, dtype=np.float64))


def read_all(raw: bytes):
    """read_frame over raw until it stops: (frames, error message or None)."""
    stream, frames = io.BytesIO(raw), []
    try:
        while (frame := codec.read_frame(stream)) is not None:
            frames.append(frame)
    except ProtocolError as exc:
        return frames, str(exc)
    return frames, None


def take_all(raw: bytes, chunk: int):
    """raw fed to a FrameBuffer chunk bytes at a time, each whole frame taken
    as soon as it is in: (frames, error message or None, bytes left)."""
    buf, frames = codec.FrameBuffer(), []
    try:
        for i in range(0, len(raw), chunk):
            buf += raw[i:i + chunk]
            while (frame := buf.take()) is not None:
                frames.append(frame)
    except ProtocolError as exc:
        return frames, str(exc), bytes(buf)
    return frames, None, bytes(buf)


def assert_take_matches_read_frame(raw: bytes, chunk: int):
    """The same frames and errors as read_frame, except that where the stream
    ends inside a frame the buffer keeps those bytes for the rest to come."""
    expected, read_error = read_all(raw)
    frames, error, left = take_all(raw, chunk)
    assert ([_outcome(lambda x: x, f) for f in frames]
            == [_outcome(lambda x: x, f) for f in expected])
    if read_error is not None and read_error.startswith("truncated frame "):
        assert error is None and left
    else:
        assert error == read_error
        assert error is not None or left == b""


HELLO = codec.pack_hello(1, 2, 3)
BUFFER_CASES = {
    "partial_header": HELLO[:2],
    "partial_payload": HELLO[:-3],
    "whole_frame": HELLO,
    "two_frames": HELLO + codec.pack_params(4, [0.5, -1.0]),
    "oversize_length": struct.pack(">I", codec.MAX_FRAME + 1),
    "zero_length": struct.pack(">I", 0) + HELLO,
    "malformed_payload": frame_of(b"\x99abc"),
}


class TestFrameBuffer:
    """FrameBuffer.take against read_frame on the same bytes."""

    @pytest.mark.parametrize("case", sorted(BUFFER_CASES))
    @pytest.mark.parametrize("chunk", [1, 3, 1000])
    def test_matches_read_frame(self, case, chunk):
        assert_take_matches_read_frame(BUFFER_CASES[case], chunk)

    def test_waits_for_the_rest(self):
        buf = codec.FrameBuffer(HELLO[:-3])
        assert buf.take() is None
        assert buf == HELLO[:-3]
        buf += HELLO[-3:] + HELLO[:1]
        assert buf.take().data == {"worker_id": 1, "num_rows": 2, "num_features": 3}
        assert buf == HELLO[:1]

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.sampled_from([HELLO, codec.pack_done(), codec.pack_error("x"),
                                     codec.pack_update(1, 2, [3.0, 4.0])]), max_size=4),
           st.binary(max_size=24), st.integers(1, 40))
    def test_fuzzed_stream_matches_read_frame(self, frames, tail, chunk):
        assert_take_matches_read_frame(b"".join(frames) + tail, chunk)


U32, U64 = st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1)
FLOAT_LISTS = st.lists(st.floats(width=64), max_size=12)

# pack_* name -> argument strategies; ints reach one past their field's range
PACK_ARGS = {
    "hello": (st.integers(-1, 2**32), st.integers(0, 2**64), U32),
    "config": (st.sampled_from(["logistic", "svm", "forest"]), st.integers(0, 2**32), U64,
               st.floats(width=64), st.floats(width=64)),
    "params": (st.integers(-1, 2**32), FLOAT_LISTS),
    "update": (U32, st.integers(-1, 2**64), FLOAT_LISTS),
    "done": (),
    "error": (st.text(max_size=20),),
}


def _outcome(fn, *args):
    """Bytes or decoded frame, with arrays by dtype and bytes, or the error type."""
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc)
    if isinstance(result, bytes):
        return result
    data = {}
    for key, value in result.data.items():
        if isinstance(value, np.ndarray):
            data[key] = (value.dtype.str, value.tobytes())
        elif isinstance(value, float):  # by bits, so a NaN field compares equal
            data[key] = (float, struct.pack("<d", value))
        else:
            data[key] = (type(value), value)
    return result.kind, data, result.wire_size


@st.composite
def mutated_payloads(draw):
    """A well-formed payload of any kind, then truncated, grown or overwritten."""
    kind = draw(st.sampled_from(sorted(PACK_ARGS)))
    args = draw(st.tuples(*PACK_ARGS[kind]))
    try:
        payload = bytearray(getattr(oracles, f"pack_{kind}_oracle")(*args)[4:])
    except Exception:  # noqa: BLE001 - out-of-range draw, start from raw bytes
        payload = bytearray(draw(st.binary(max_size=40)))
    for _ in range(draw(st.integers(0, 3))):
        action = draw(st.sampled_from(["cut", "grow", "set"]))
        if action == "cut":
            del payload[draw(st.integers(0, len(payload))):]
        elif action == "grow":
            payload += draw(st.binary(min_size=1, max_size=16))
        elif payload:
            payload[draw(st.integers(0, len(payload) - 1))] = draw(st.integers(0, 255))
    return bytes(payload)


class TestMatchesPerTypeOracle:
    """LAYOUTS-driven pack/unpack against the per-type codec it replaced."""

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_pack_bytes_identical(self, data):
        kind = data.draw(st.sampled_from(sorted(PACK_ARGS)))
        args = data.draw(st.tuples(*PACK_ARGS[kind]))
        want = _outcome(getattr(oracles, f"pack_{kind}_oracle"), *args)
        # a field out of its struct range: the oracle's struct.error is now a ProtocolError
        assert _outcome(getattr(codec, f"pack_{kind}"), *args) == (
            ProtocolError if want is struct.error else want)

    @settings(deadline=None, max_examples=300)
    @given(st.one_of(mutated_payloads(), st.binary(max_size=64)))
    def test_unpack_outcome_identical(self, payload):
        mine = _outcome(codec.unpack, payload)
        assert mine == _outcome(oracles.unpack_oracle, payload)
        assert isinstance(mine, tuple) or mine is ProtocolError

    def test_every_type_covered(self):
        assert set(codec.LAYOUTS) == set(range(6))
        assert {kind for kind, _, _ in codec.LAYOUTS.values()} == set(PACK_ARGS)
