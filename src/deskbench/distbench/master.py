"""Master side of synchronous distributed training.

The master accepts one connection per declared worker, handshakes,
then runs synchronous rounds: broadcast the global parameter vector,
wait for every worker's locally-trained update, and average the
updates weighted by sample count in fixed worker-id order. A timed-out
round is retried once before the run fails listing the culprits.

One selector loop on the calling thread serves every connection at once,
in the accept window too, so a silent client delays no worker.
"""

import io
import logging
import math
import selectors
import socket
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, ProtocolError
from ..evaluation import auc_roc
from ..linmodels import LinearModel, SgdConfig, decision_scores
from . import codec

log = logging.getLogger(__name__)

# The longest single wait of _receive. epoll takes at most 2^31 ms (about 25
# days), and every caller loops until its own deadline, so a longer
# round_timeout_s waits in steps of this.
_MAX_WAIT_S = 3600.0


@dataclass
class ClusterSpec:
    """Declared topology: where to listen and which workers to expect."""

    master_address: str                 # host:port, port 0 for ephemeral
    workers: list                       # (worker_id, declared_cores, part_path)
    round_timeout_s: float = 30.0       # also the handshake accept window
    max_rounds: int = 100

    def __post_init__(self):
        if not self.workers:
            raise ConfigError("at least one worker required")
        ids = [w[0] for w in self.workers]
        if len(set(ids)) != len(ids):
            raise ConfigError("worker ids must be unique")
        if any(not 0 <= i < 2**32 for i in ids):
            raise ConfigError("worker ids must be in [0, 2**32), as HELLO carries them")
        if self.max_rounds < 1:
            raise ConfigError("max_rounds must be >= 1")
        if not 0 < self.round_timeout_s < math.inf:  # NaN fails this too
            raise ConfigError("round_timeout_s must be positive and finite")

    @property
    def worker_ids(self) -> list:
        return sorted(w[0] for w in self.workers)


@dataclass
class BenchRecord:
    """Timings, traffic, and final quality of one distributed run.

    handshake byte counters also cover the shutdown DONE frames; round
    counters cover exactly the PARAMS broadcasts and UPDATE replies of
    each round, retries included. round_wall_clock_s times each round, PARAMS
    broadcast to averaged update; wall_clock_s the session, listen to DONE
    drain, which includes each worker parsing its part before HELLO.
    """

    algo: str
    manifest: str = ""
    num_workers: int = 0
    round_wall_clock_s: list = field(default_factory=list)
    round_bytes_sent: list = field(default_factory=list)
    round_bytes_received: list = field(default_factory=list)
    handshake_bytes_sent: int = 0
    handshake_bytes_received: int = 0
    wall_clock_s: float = 0.0
    holdout_auc: float | None = None

    @property
    def bytes_sent(self) -> int:
        return self.handshake_bytes_sent + sum(self.round_bytes_sent)

    @property
    def bytes_received(self) -> int:
        return self.handshake_bytes_received + sum(self.round_bytes_received)


@dataclass
class _Conn:
    """An accepted socket, its bytes not yet decoded or sent, and its worker id."""

    sock: socket.socket
    peer: tuple
    buf: codec.FrameBuffer = field(default_factory=codec.FrameBuffer)
    out: bytearray = field(default_factory=bytearray)
    worker_id: int | None = None  # set by its HELLO


def _split_address(address: str) -> tuple[str, int]:
    """`host:port` or `[v6host]:port` -> (host, port); shared with the worker.

    Raises ValueError when the colon or a numeric port is missing, or the
    port is outside 0-65535.
    """
    host, sep, port = address.rpartition(":")
    if not sep:
        raise ValueError(f"address must look like host:port, got {address!r}")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    number = int(port)
    if not 0 <= number <= 65535:
        raise ValueError(f"port must be in 0-65535, got {number}")
    return host, number


def _listen(address: str):
    host, port = _split_address(address)
    host = host or "127.0.0.1"
    family = socket.getaddrinfo(host, None, type=socket.SOCK_STREAM)[0][0]
    server = socket.socket(family, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind((host, port))
    server.listen()
    return server


def _receive(sel, deadline: float) -> list:
    """Accept, send what is queued and read what arrives, by deadline at the
    latest. Returns (conn, item) pairs; item is a decoded Frame, None for a
    clean end of stream, or the error that ended the connection."""
    events = []
    for key, mask in sel.select(min(max(deadline - time.monotonic(), 0.0), _MAX_WAIT_S)):
        conn = key.data
        if conn is None:  # the listening socket
            sock, peer = key.fileobj.accept()
            sock.setblocking(False)
            sel.register(sock, selectors.EVENT_READ, _Conn(sock, peer))
            continue
        try:
            if mask & selectors.EVENT_WRITE:
                del conn.out[:conn.sock.send(conn.out)]
                if not conn.out:
                    sel.modify(conn.sock, selectors.EVENT_READ, conn)
            if mask & selectors.EVENT_READ:
                chunk = conn.sock.recv(1 << 16)
                conn.buf += chunk
                while (frame := conn.buf.take()) is not None:
                    events.append((conn, frame))
                if not chunk:  # end of stream; read_frame names a frame cut short
                    events.append((conn, codec.read_frame(io.BytesIO(conn.buf))))
        except (OSError, ProtocolError) as exc:
            conn.out.clear()
            events.append((conn, exc))
    return events


def _accept_workers(sel, spec: ClusterSpec, record: BenchRecord) -> tuple[dict, int]:
    """Collect one HELLO per expected worker id within the accept window.

    Returns the connections by worker id and the feature count they agree
    on, and closes the listening socket and every other connection.
    """
    expected = set(spec.worker_ids)
    conns = {}
    widths = set()
    deadline = time.monotonic() + spec.round_timeout_s
    while expected - set(conns):
        if time.monotonic() >= deadline:
            raise ProtocolError(
                f"workers {sorted(expected - set(conns))} did not connect "
                f"within {spec.round_timeout_s}s; round_timeout_s (--round-timeout) "
                "is also the accept window, and a worker parses its whole part "
                "before HELLO")
        for conn, item in _receive(sel, deadline):
            if conn.sock.fileno() < 0:
                continue  # dropped for an earlier item of this batch
            if conn.worker_id is not None:  # nothing may come between HELLO and CONFIG
                got = (f"sent a {item.kind} frame" if isinstance(item, codec.Frame)
                       else f"lost its connection ({item or 'closed'})")
                raise ProtocolError(f"worker {conn.worker_id} {got} before config")
            if isinstance(item, codec.Frame):
                record.handshake_bytes_received += item.wire_size
                if item.kind == "error":
                    raise ProtocolError(f"worker reported: {item.data['message']}")
                wid = item.data.get("worker_id")
                if item.kind == "hello" and wid in expected - set(conns):
                    conn.worker_id = wid
                    conns[wid] = conn
                    widths.add(item.data["num_features"])
                    continue
            log.error("dropping connection from %s: expected a new worker's hello, got %r",
                      conn.peer, item)
            sel.unregister(conn.sock)
            conn.sock.close()
    for key in list(sel.get_map().values()):
        if key.data is None or key.data.worker_id is None:
            sel.unregister(key.fileobj)
            key.fileobj.close()
    if len(widths) != 1:
        raise ProtocolError(f"workers disagree on feature count: {sorted(widths)}")
    return conns, widths.pop()


def _broadcast(sel, conns, targets, frame_bytes: bytes) -> int:
    """Queue frame_bytes to each target; _receive sends them as sockets drain,
    so the master never blocks sending to a worker that is sending to it."""
    for wid in targets:
        conns[wid].out += frame_bytes
        sel.modify(conns[wid].sock, selectors.EVENT_READ | selectors.EVENT_WRITE, conns[wid])
    return len(frame_bytes) * len(targets)


def _fail(sel, conns, message: str):
    _broadcast(sel, conns, conns, codec.pack_error(message))
    raise ProtocolError(message)


def _collect_round(spec, sel, conns, round_, params_frame, record,
                   expected_count) -> dict:
    """Gather one update per worker; retry the broadcast once on timeout."""
    updates = {}
    retried = False
    deadline = time.monotonic() + spec.round_timeout_s
    while len(updates) < len(conns):
        if time.monotonic() >= deadline:
            missing = sorted(set(conns) - set(updates))
            if not retried:
                retried = True
                log.warning("round %d timed out; retrying workers %s", round_, missing)
                record.round_bytes_sent[round_] += _broadcast(sel, conns, missing, params_frame)
                deadline = time.monotonic() + spec.round_timeout_s
                continue
            _fail(sel, conns, f"round {round_} timed out waiting for workers {missing}")
        for conn, item in _receive(sel, deadline):
            wid = conn.worker_id
            if not isinstance(item, codec.Frame):
                _fail(sel, conns, f"worker {wid} closed its connection mid-run" if item is None
                      else f"worker {wid} connection failed: {item}")
            record.round_bytes_received[round_] += item.wire_size
            if item.kind == "error":
                _fail(sel, conns, f"worker {wid} reported: {item.data['message']}")
            if item.kind != "update":
                _fail(sel, conns, f"worker {wid} sent a {item.kind} frame during round {round_}")
            if item.data["count"] != expected_count:
                _fail(sel, conns, f"worker {wid} sent {item.data['count']} parameters, "
                      f"expected {expected_count}")
            if item.data["round"] != round_:
                log.warning("stale update for round %d from worker %d ignored",
                            item.data["round"], wid)
                continue
            if wid in updates:
                continue  # duplicate after a retry: first received wins
            updates[wid] = (item.data["sample_count"], item.data["values"])
    return updates


def _aggregate(updates: dict) -> np.ndarray:
    """Weighted average Σ nᵢwᵢ / Σ nᵢ, summed in ascending worker id."""
    total = 0
    acc = None
    for wid in sorted(updates):
        count, values = updates[wid]
        if count < 1:
            raise ProtocolError(f"worker {wid} reported zero samples")
        term = float(count) * values
        acc = term if acc is None else acc + term
        total += count
    return acc / float(total)


def run_master(spec: ClusterSpec, algo: str, cfg: SgdConfig, rounds: int,
               holdout=None, manifest: str = "", on_listening=None):
    """Run a full distributed training session.

    Returns (final LinearModel, BenchRecord). cfg supplies lambda,
    learning rate, and seed; rounds is at most spec.max_rounds. If a
    holdout DenseDataset is given, the record carries its final AUC.
    on_listening, if set, receives the actually bound (host, port)
    before workers are awaited, which makes ephemeral ports usable.
    """
    if algo not in codec.ALGO_CODES:
        raise ConfigError(f"algo must be one of {sorted(codec.ALGO_CODES)}")
    if not 1 <= rounds <= spec.max_rounds:
        raise ConfigError(f"rounds must be in [1, {spec.max_rounds}]")

    record = BenchRecord(algo=algo, manifest=manifest, num_workers=len(spec.workers))
    start = time.perf_counter()
    server = _listen(spec.master_address)
    sel = selectors.DefaultSelector()
    sel.register(server, selectors.EVENT_READ)  # no data marks the listening socket
    try:
        if on_listening is not None:
            on_listening(server.getsockname())
        conns, num_features = _accept_workers(sel, spec, record)
        config_frame = codec.pack_config(algo, rounds, cfg.seed,
                                         cfg.lambda_, cfg.learning_rate)
        record.handshake_bytes_sent += _broadcast(sel, conns, conns, config_frame)

        params = np.zeros(num_features + 1, dtype=np.float64)
        for round_ in range(rounds):
            t0 = time.perf_counter()
            record.round_bytes_sent.append(0)
            record.round_bytes_received.append(0)
            params_frame = codec.pack_params(round_, params)
            record.round_bytes_sent[round_] += _broadcast(sel, conns, conns, params_frame)
            updates = _collect_round(spec, sel, conns, round_, params_frame,
                                     record, num_features + 1)
            params = _aggregate(updates)
            record.round_wall_clock_s.append(time.perf_counter() - t0)

        record.handshake_bytes_sent += _broadcast(sel, conns, conns, codec.pack_done())
    finally:  # send what is queued (DONE, or a failed run's ERROR), then close
        deadline = time.monotonic() + spec.round_timeout_s
        while (any(key.data.out for key in sel.get_map().values() if key.data)
               and time.monotonic() < deadline):
            _receive(sel, deadline)
        for key in sel.get_map().values():
            key.fileobj.close()
        sel.close()

    record.wall_clock_s = time.perf_counter() - start
    model = LinearModel(weights=params[:-1], bias=float(params[-1]), kind=algo)
    if holdout is not None:
        record.holdout_auc = auc_roc(holdout.labels, decision_scores(model, holdout))
    return model, record
