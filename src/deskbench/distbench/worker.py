"""Worker side of the master-worker training loop.

A worker preloads its data part, greets the master with HELLO, then
answers each PARAMS broadcast with one local epoch and an UPDATE. The
local epoch is one linmodels.sgd_epoch pass at LOCAL_EPOCH_BATCH, seeded
by (global seed, worker id, round) so any run can be replayed exactly,
including by a single-node oracle.
"""

import logging
import socket
import time

import numpy as np

from ..dataio import DenseDataset, load_dense
from ..errors import EXIT_DATA, EXIT_OK, EXIT_RUNTIME, DataFormatError, ProtocolError
from ..linmodels import sgd_epoch
from . import codec
from .master import _split_address

log = logging.getLogger(__name__)

# Mini-batch size of one local epoch. Fixed protocol-wide: the CONFIG
# frame carries only lambda and the learning rate, so both ends must
# agree on this out of band.
LOCAL_EPOCH_BATCH = 64


def epoch_rng(seed: int, worker_id: int, round_: int) -> np.random.Generator:
    """The round's generator; shared by workers and the local oracle."""
    return np.random.default_rng([seed, worker_id, round_])


def local_epoch(algo: str, weights, bias: float, features, y01, lambda_: float,
                lr: float, rng):
    """One local epoch from the given parameters: sgd_epoch on a copy.

    Returns (weights, bias) as new arrays; the inputs are not changed.
    """
    w = np.array(weights, dtype=np.float64)
    b = sgd_epoch(algo, w, float(bias), features, y01, lambda_, lr, LOCAL_EPOCH_BATCH, rng)
    return w, b


def _split_params(values, num_features: int):
    if values.size != num_features + 1:
        raise ProtocolError(f"parameter vector has {values.size} floats, "
                            f"expected {num_features + 1}")
    return values[:num_features].copy(), float(values[num_features])


def _connect(address: str, attempts: int, delay_s: float) -> socket.socket:
    host, port = _split_address(address)
    last = None
    for attempt in range(attempts):
        if attempt:
            time.sleep(delay_s)
        try:
            return socket.create_connection((host, port), timeout=30.0)
        except OSError as exc:
            last = exc
            log.warning("connect attempt %d/%d to %s failed: %s",
                        attempt + 1, attempts, address, exc)
    raise ProtocolError(f"could not connect to {address} after {attempts} attempts: {last}")


def _serve_once(sock: socket.socket, ds: DenseDataset, worker_id: int) -> int:
    """The rest of the conversation after HELLO on an established connection."""
    sock.settimeout(None)  # rounds may be arbitrarily long; block on reads
    config = None
    with sock.makefile("rb") as stream:
        while True:
            frame = codec.read_frame(stream)
            if frame is None:
                raise ConnectionResetError("master closed the connection mid-run")
            if frame.kind == "config":
                config = frame.data
            elif frame.kind == "params":
                if config is None:
                    raise ProtocolError("params received before config")
                w, b = _split_params(frame.data["values"], ds.num_features)
                rng = epoch_rng(config["seed"], worker_id, frame.data["round"])
                w, b = local_epoch(config["algo"], w, b, ds.features, ds.labels,
                                   config["lambda_"], config["lr"], rng)
                update = codec.pack_update(frame.data["round"], ds.num_rows,
                                           np.append(w, b))
                sock.sendall(update)
            elif frame.kind == "done":
                return EXIT_OK
            elif frame.kind == "error":
                log.error("master reported: %s", frame.data["message"])
                return EXIT_RUNTIME
            else:
                raise ProtocolError(f"unexpected {frame.kind} frame from master")


def run_worker(connect: str, part_path, worker_id: int,
               reconnect_attempts: int = 3, reconnect_delay_s: float = 0.2) -> int:
    """Serve one data part. Returns a process exit status (0/2/3).

    A malformed master address is a protocol error, reported before the
    part is read. An unparseable part is reported to the master as an
    ERROR frame in place of HELLO, then the worker exits with a
    data-error status. Connecting is tried up to reconnect_attempts times,
    reconnect_delay_s apart, since a worker may start before the master
    listens. A connection lost after HELLO ends the run with status 3: the
    master takes each worker's HELLO once and fails the run on a lost
    connection, so there is nothing to reconnect to.
    """
    try:
        _split_address(connect)
    except ValueError as exc:
        log.error("bad master address %r: %s", connect, exc)
        return EXIT_RUNTIME
    ds = bad_part = None
    try:
        ds = load_dense(part_path)  # zero_one: a label other than 0/1 names its line
    except (DataFormatError, ValueError, OSError) as exc:
        log.error("cannot load part %s: %s", part_path, exc)
        bad_part = codec.pack_error(f"worker {worker_id}: bad part: {exc}")

    try:
        greeting = bad_part or codec.pack_hello(worker_id, ds.num_rows, ds.num_features)
        with _connect(connect, reconnect_attempts, reconnect_delay_s) as sock:
            sock.sendall(greeting)
            return EXIT_DATA if bad_part else _serve_once(sock, ds, worker_id)
    except (ProtocolError, OSError) as exc:
        if bad_part:
            return EXIT_DATA  # already logged; the master may not have been told
        # unreachable master or malformed traffic: drop the connection, give up
        log.error("%s: %s", "protocol failure" if isinstance(exc, ProtocolError)
                  else "connection lost", exc)
        return EXIT_RUNTIME
