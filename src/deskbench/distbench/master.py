"""Master side of synchronous distributed training.

The master accepts one connection per declared worker, handshakes,
then runs synchronous rounds: broadcast the global parameter vector,
wait for every worker's locally-trained update, and average the
updates weighted by sample count in fixed worker-id order. A timed-out
round is retried once before the run fails listing the culprits.
"""

import logging
import queue
import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, ProtocolError
from ..evaluation import auc_roc
from ..linmodels import LinearModel, SgdConfig, decision_scores
from . import codec

log = logging.getLogger(__name__)


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
        if any(i < 0 for i in ids):
            raise ConfigError("worker ids must be non-negative")
        if self.max_rounds < 1:
            raise ConfigError("max_rounds must be >= 1")
        if self.round_timeout_s <= 0:
            raise ConfigError("round_timeout_s must be positive")

    @property
    def worker_ids(self) -> list:
        return sorted(w[0] for w in self.workers)


@dataclass
class BenchRecord:
    """Timings, traffic, and final quality of one distributed run.

    handshake byte counters also cover the shutdown DONE frames; round
    counters cover exactly the PARAMS broadcasts and UPDATE replies of
    each round, retries included.
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


def _hard_close(sock, stream=None):
    """Force a FIN now: makefile() keeps the fd alive past sock.close()."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    for closeable in (stream, sock):
        if closeable is not None:
            try:
                closeable.close()
            except OSError:
                pass


class _Conn:
    def __init__(self, worker_id, sock, stream):
        self.worker_id = worker_id
        self.sock = sock
        self.stream = stream

    def close(self):
        _hard_close(self.sock, self.stream)


def _reader(conn: _Conn, inbox: queue.Queue) -> None:
    while True:
        try:
            frame = codec.read_frame(conn.stream)
        except (ProtocolError, OSError, ValueError) as exc:
            inbox.put((conn.worker_id, exc))
            return
        inbox.put((conn.worker_id, frame))
        if frame is None:
            return


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


def _accept_workers(server, spec: ClusterSpec, record: BenchRecord) -> tuple[dict, int]:
    """Collect one HELLO per expected worker id within the accept window.

    Returns the connections by worker id and the feature count they agree on.
    """
    expected = set(spec.worker_ids)
    conns = {}
    widths = set()
    deadline = time.monotonic() + spec.round_timeout_s
    try:
        while expected - set(conns):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ProtocolError(
                    f"workers {sorted(expected - set(conns))} did not connect "
                    f"within {spec.round_timeout_s}s; round_timeout_s (--round-timeout) "
                    "is also the accept window, and a worker parses its whole part "
                    "before HELLO")
            server.settimeout(remaining)
            try:
                sock, peer = server.accept()
            except socket.timeout:
                continue
            sock.settimeout(max(deadline - time.monotonic(), 0.01))
            stream = sock.makefile("rb")
            try:
                frame = codec.read_frame(stream)
            except (ProtocolError, OSError) as exc:
                log.error("handshake from %s failed: %s", peer, exc)
                _hard_close(sock, stream)
                continue
            if frame is None:
                _hard_close(sock, stream)
                continue
            record.handshake_bytes_received += frame.wire_size
            if frame.kind == "error":
                raise ProtocolError(f"worker reported: {frame.data['message']}")
            if frame.kind != "hello":
                log.error("protocol violation from %s: expected hello, got %r",
                          peer, frame)
                _hard_close(sock, stream)
                continue
            wid = frame.data["worker_id"]
            if wid not in expected or wid in conns:
                log.error("unexpected worker id %d from %s; dropping", wid, peer)
                _hard_close(sock, stream)
                continue
            sock.settimeout(None)
            conns[wid] = _Conn(wid, sock, stream)
            widths.add(frame.data["num_features"])
        if len(widths) != 1:
            raise ProtocolError(f"workers disagree on feature count: {sorted(widths)}")
        return conns, widths.pop()
    except BaseException:
        for conn in conns.values():
            conn.close()
        raise


def _broadcast(conns, targets, frame_bytes: bytes) -> int:
    sent = 0
    for wid in sorted(targets):
        try:
            conns[wid].sock.sendall(frame_bytes)
        except OSError as exc:
            raise ProtocolError(f"worker {wid} unreachable: {exc}") from exc
        sent += len(frame_bytes)
    return sent


def _fail(conns, message: str):
    err = codec.pack_error(message)
    for conn in conns.values():
        try:
            conn.sock.sendall(err)
        except OSError:
            pass
        conn.close()
    raise ProtocolError(message)


def _collect_round(spec, conns, inbox, round_, params_frame, record,
                   expected_count) -> dict:
    """Gather one update per worker; retry the broadcast once on timeout."""
    updates = {}
    retried = False
    deadline = time.monotonic() + spec.round_timeout_s
    while len(updates) < len(conns):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            missing = sorted(set(conns) - set(updates))
            if not retried:
                retried = True
                log.warning("round %d timed out; retrying workers %s", round_, missing)
                record.round_bytes_sent[round_] += _broadcast(conns, missing, params_frame)
                deadline = time.monotonic() + spec.round_timeout_s
                continue
            _fail(conns, f"round {round_} timed out waiting for workers {missing}")
        try:
            wid, item = inbox.get(timeout=remaining)
        except queue.Empty:
            continue
        if isinstance(item, Exception):
            _fail(conns, f"worker {wid} connection failed: {item}")
        if item is None:
            _fail(conns, f"worker {wid} closed its connection mid-run")
        record.round_bytes_received[round_] += item.wire_size
        if item.kind == "error":
            _fail(conns, f"worker {wid} reported: {item.data['message']}")
        if item.kind != "update":
            violation = f"sent a {item.kind} frame during round {round_}"
        elif item.data["count"] != expected_count:
            violation = f"sent {item.data['count']} parameters, expected {expected_count}"
        else:
            violation = None
        if violation:
            log.error("protocol violation from worker %d: %r; dropping", wid, item)
            conns[wid].close()
            _fail(conns, f"worker {wid} {violation}")
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


def run_master(spec: ClusterSpec, algo: str, cfg: SgdConfig, rounds: int | None = None,
               holdout=None, manifest: str = "", on_listening=None):
    """Run a full distributed training session.

    Returns (final LinearModel, BenchRecord). cfg supplies lambda,
    learning rate, and seed; rounds defaults to spec.max_rounds. If a
    holdout DenseDataset is given, the record carries its final AUC.
    on_listening, if set, receives the actually bound (host, port)
    before workers are awaited, which makes ephemeral ports usable.
    """
    if algo not in codec.ALGO_CODES:
        raise ConfigError(f"algo must be one of {sorted(codec.ALGO_CODES)}")
    rounds = spec.max_rounds if rounds is None else rounds
    if not 1 <= rounds <= spec.max_rounds:
        raise ConfigError(f"rounds must be in [1, {spec.max_rounds}]")

    record = BenchRecord(algo=algo, manifest=manifest, num_workers=len(spec.workers))
    start = time.perf_counter()
    server = _listen(spec.master_address)
    try:
        if on_listening is not None:
            on_listening(server.getsockname())
        conns, num_features = _accept_workers(server, spec, record)
    finally:
        server.close()

    try:
        config_frame = codec.pack_config(algo, rounds, cfg.seed,
                                         cfg.lambda_, cfg.learning_rate)
        record.handshake_bytes_sent += _broadcast(conns, conns.keys(), config_frame)

        inbox = queue.Queue()
        threads = [threading.Thread(target=_reader, args=(conn, inbox), daemon=True)
                   for conn in conns.values()]
        for thread in threads:
            thread.start()

        params = np.zeros(num_features + 1, dtype=np.float64)
        for round_ in range(rounds):
            t0 = time.perf_counter()
            record.round_wall_clock_s.append(0.0)
            record.round_bytes_sent.append(0)
            record.round_bytes_received.append(0)
            params_frame = codec.pack_params(round_, params)
            record.round_bytes_sent[round_] += _broadcast(conns, conns.keys(),
                                                          params_frame)
            updates = _collect_round(spec, conns, inbox, round_, params_frame,
                                     record, num_features + 1)
            params = _aggregate(updates)
            record.round_wall_clock_s[round_] = time.perf_counter() - t0

        record.handshake_bytes_sent += _broadcast(conns, conns.keys(), codec.pack_done())
    finally:
        for conn in conns.values():
            conn.close()

    record.wall_clock_s = time.perf_counter() - start
    model = LinearModel(weights=params[:-1], bias=float(params[-1]), kind=algo)
    if holdout is not None:
        record.holdout_auc = auc_roc(holdout.labels, decision_scores(model, holdout))
    return model, record
