"""Wire protocol codec for master-worker training.

Frame layout (bit-exact): 4-byte big-endian unsigned payload length,
then payload = 1 type byte + body. ``LAYOUTS`` describes each type's
body once, and both directions read it: fixed-size struct segments in
order, then an optional tail of ``count`` little-endian f64s (FLOATS)
or utf-8 text (TEXT).

Frames above 64 MiB are a protocol error on both ends. unpack() raises
ProtocolError on any malformed payload, never anything else; the pack_*
functions raise it for a field value that its struct format cannot hold.
"""

import struct
from dataclasses import dataclass

import numpy as np

from ..errors import ProtocolError

MAX_FRAME = 64 * 1024 * 1024  # payload byte cap
HEADER_SIZE = 4

T_ERROR = 0x00
T_HELLO = 0x01
T_CONFIG = 0x02
T_PARAMS = 0x03
T_UPDATE = 0x04
T_DONE = 0x05

FLOATS = "floats"  # tail of `count` f64 LE, decoded as "values"
TEXT = "text"      # tail of utf-8 text, decoded as "message"

# type byte -> (kind, ((struct format, field names), ...), tail)
LAYOUTS = {
    T_ERROR: ("error", (), TEXT),
    T_HELLO: ("hello", ((">IQI", ("worker_id", "num_rows", "num_features")),), None),
    T_CONFIG: ("config", ((">BIQ", ("algo", "round_count", "seed")),
                          ("<dd", ("lambda_", "lr"))), None),
    T_PARAMS: ("params", ((">II", ("round", "count")),), FLOATS),
    T_UPDATE: ("update", ((">IQI", ("round", "sample_count", "count")),), FLOATS),
    T_DONE: ("done", (), None),
}

ALGO_CODES = {"logistic": 1, "svm": 2}
ALGO_NAMES = {code: name for name, code in ALGO_CODES.items()}


@dataclass
class Frame:
    """Decoded frame: kind name, field dict, and its on-wire byte size."""

    kind: str
    data: dict
    wire_size: int


def frame_size(body_len: int) -> int:
    """Total on-wire bytes for a frame with the given body length."""
    return HEADER_SIZE + 1 + body_len


def _fixed_size(ftype: int) -> int:
    """Body bytes of a frame type before its tail."""
    return sum(struct.calcsize(fmt) for fmt, _ in LAYOUTS[ftype][1])


def params_frame_size(count: int) -> int:
    return frame_size(_fixed_size(T_PARAMS) + 8 * count)


def update_frame_size(count: int) -> int:
    return frame_size(_fixed_size(T_UPDATE) + 8 * count)


def _pack(ftype: int, tail: bytes = b"", **fields) -> bytes:
    """Length header, type byte, each segment's fields, then the tail bytes."""
    kind, segments, _ = LAYOUTS[ftype]
    try:
        payload = bytes([ftype]) + b"".join(
            struct.pack(fmt, *(fields[name] for name in names))
            for fmt, names in segments) + tail
    except struct.error as exc:  # a field value its format cannot hold
        raise ProtocolError(f"cannot pack {kind} frame: {exc}") from exc
    if len(payload) > MAX_FRAME:
        raise ProtocolError(f"frame payload {len(payload)} exceeds {MAX_FRAME} bytes")
    return struct.pack(">I", len(payload)) + payload


def _floats_le(values) -> bytes:
    arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    if arr.ndim != 1:
        raise ProtocolError("parameter vector must be 1-d")
    return arr.astype("<f8").tobytes()


def pack_hello(worker_id: int, num_rows: int, num_features: int) -> bytes:
    return _pack(T_HELLO, worker_id=worker_id, num_rows=num_rows, num_features=num_features)


def pack_config(algo: str, round_count: int, seed: int, lambda_: float, lr: float) -> bytes:
    if algo not in ALGO_CODES:
        raise ProtocolError(f"unknown algorithm {algo!r}")
    return _pack(T_CONFIG, algo=ALGO_CODES[algo], round_count=round_count, seed=seed,
                 lambda_=lambda_, lr=lr)


def pack_params(round_: int, values) -> bytes:
    floats = _floats_le(values)
    return _pack(T_PARAMS, floats, round=round_, count=len(floats) // 8)


def pack_update(round_: int, sample_count: int, values) -> bytes:
    floats = _floats_le(values)
    return _pack(T_UPDATE, floats, round=round_, sample_count=sample_count,
                 count=len(floats) // 8)


def pack_done() -> bytes:
    return _pack(T_DONE)


def pack_error(message: str) -> bytes:
    return _pack(T_ERROR, message.encode("utf-8"))


def unpack(payload: bytes) -> Frame:
    """Decode one frame payload (type byte + body). Raises ProtocolError."""
    if len(payload) > MAX_FRAME:
        raise ProtocolError(f"frame payload {len(payload)} exceeds {MAX_FRAME} bytes")
    if not payload:
        raise ProtocolError("empty frame payload")
    ftype, body = payload[0], payload[1:]
    if ftype not in LAYOUTS:
        raise ProtocolError(f"unknown frame type 0x{ftype:02x}")
    kind, segments, tail = LAYOUTS[ftype]
    data, offset = {}, 0
    try:
        for fmt, names in segments:
            data.update(zip(names, struct.unpack_from(fmt, body, offset)))
            offset += struct.calcsize(fmt)
    except struct.error as exc:
        raise ProtocolError(f"truncated {kind} frame: {exc}") from exc
    if tail == TEXT:
        try:
            data["message"] = body[offset:].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"{kind} frame is not utf-8: {exc}") from exc
    else:
        expected = offset + 8 * data["count"] if tail == FLOATS else offset
        if len(body) != expected:
            raise ProtocolError(f"{kind} frame has {len(body)} body bytes, expected {expected}")
        if tail == FLOATS:
            data["values"] = np.frombuffer(body, dtype="<f8", count=data["count"],
                                           offset=offset).astype(np.float64)
    if "algo" in data:
        if data["algo"] not in ALGO_NAMES:
            raise ProtocolError(f"unknown algorithm code {data['algo']}")
        data["algo"] = ALGO_NAMES[data["algo"]]
    return Frame(kind, data, frame_size(len(body)))


def read_frame(stream) -> Frame | None:
    """Read one frame from a byte stream with .read(n).

    Returns None on a clean end-of-stream at a frame boundary; raises
    ProtocolError on truncation, oversize, or malformed payloads.
    """
    header = stream.read(HEADER_SIZE)
    if not header:
        return None
    if len(header) < HEADER_SIZE:
        raise ProtocolError("truncated frame header")
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME:
        raise ProtocolError(f"declared frame payload {length} exceeds {MAX_FRAME} bytes")
    if length == 0:
        raise ProtocolError("empty frame payload")
    payload = stream.read(length)
    if len(payload) < length:
        raise ProtocolError(f"truncated frame payload ({len(payload)} of {length} bytes)")
    return unpack(payload)


class FrameBuffer(bytearray):
    """Bytes received but not yet decoded; take() decodes them one frame at
    a time through read_frame, which reads this buffer as its stream."""

    def read(self, n: int):  # past the end: EOFError, where a socket would block
        self.pos += n
        if self.pos > len(self):
            raise EOFError
        return self[self.pos - n:self.pos]

    def take(self) -> Frame | None:
        """Remove and decode the first whole frame, or return None while there
        is none. Errors are read_frame's; a bad length fails with its header."""
        self.pos = 0
        try:
            frame = read_frame(self)
        except EOFError:
            return None
        del self[:self.pos]
        return frame
