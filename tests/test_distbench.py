"""Master-worker integration tests over loopback sockets."""

import json
import socket
import struct
import threading
import time
from dataclasses import asdict

import numpy as np
import pytest

from deskbench.dataio import DenseDataset, generate_synthetic, save_dense, split_parts
from deskbench.distbench import codec, master
from deskbench.distbench.bench import (
    LocalBenchResult,
    bench_compare,
    local_train_rounds,
    render_comparison_csv,
    run_local_bench,
)
from deskbench.distbench.master import (
    BenchRecord,
    ClusterSpec,
    _aggregate,
    _split_address,
    run_master,
)
from deskbench.distbench.worker import _connect, epoch_rng, local_epoch, run_worker
from deskbench.errors import ConfigError, DataFormatError, ProtocolError
from deskbench.linmodels import SgdConfig

CFG = SgdConfig(lambda_=0.01, epochs_or_iters=1, learning_rate=0.05, seed=3)


def start_master(spec, algo, cfg, rounds, holdout=None, manifest=""):
    """Run run_master in a thread; returns (thread, result dict, port event)."""
    result = {}
    ready = threading.Event()

    def on_listening(addr):
        result["port"] = addr[1]
        ready.set()

    def target():
        try:
            model, record = run_master(spec, algo, cfg, rounds=rounds,
                                       holdout=holdout, manifest=manifest,
                                       on_listening=on_listening)
            result["model"], result["record"] = model, record
        except Exception as exc:
            result["error"] = exc
            ready.set()

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, result, ready


def start_worker(port, part_path, worker_id, host="127.0.0.1"):
    result = {}

    def target():
        result["status"] = run_worker(f"{host}:{port}", part_path, worker_id,
                                      reconnect_attempts=3, reconnect_delay_s=0.05)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, result


def run_cluster(tmp_path, parts, algo, cfg, rounds, timeout_s=20.0,
                holdout=None, manifest="", host="127.0.0.1"):
    """Full loopback session; returns (model, record, worker statuses)."""
    paths = []
    for i, part in enumerate(parts):
        path = tmp_path / f"part{i}.csv"
        save_dense(part, path)
        paths.append(path)
    spec = ClusterSpec(f"{host}:0",
                       [(i + 1, 4, str(p)) for i, p in enumerate(paths)],
                       round_timeout_s=timeout_s, max_rounds=max(rounds, 1))
    thread, result, ready = start_master(spec, algo, cfg, rounds,
                                         holdout=holdout, manifest=manifest)
    assert ready.wait(5.0)
    if "error" in result:
        raise result["error"]
    workers = [start_worker(result["port"], paths[i], i + 1, host)
               for i in range(len(parts))]
    thread.join(timeout_s + 10.0)
    for wt, _ in workers:
        wt.join(5.0)
    if "error" in result:
        raise result["error"]
    return result["model"], result["record"], [w[1]["status"] for w in workers]


class TestSingleWorkerEquivalence:
    @pytest.mark.parametrize("algo", ["logistic", "svm"])
    def test_matches_local_oracle(self, algo, tmp_path):
        ds = generate_synthetic(300, 10, 2.0, seed=1)
        model, record, statuses = run_cluster(tmp_path, [ds], algo, CFG, rounds=5)
        assert statuses == [0]
        oracle = local_train_rounds(ds, algo, CFG, rounds=5, worker_id=1)
        assert np.max(np.abs(model.weights - oracle.weights)) < 1e-9
        assert abs(model.bias - oracle.bias) < 1e-9
        assert model.kind == algo
        assert len(record.round_wall_clock_s) == 5


def ipv6_loopback_available() -> bool:
    try:
        with socket.socket(socket.AF_INET6, socket.SOCK_STREAM) as sock:
            sock.bind(("::1", 0))
    except OSError:
        return False
    return True


class TestAddresses:
    def test_split_address(self):
        assert _split_address("127.0.0.1:7077") == ("127.0.0.1", 7077)
        assert _split_address(":0") == ("", 0)
        assert _split_address("[::1]:0") == ("::1", 0)
        assert _split_address("[fe80::1%eth0]:9") == ("fe80::1%eth0", 9)
        assert _split_address("127.0.0.1:65535") == ("127.0.0.1", 65535)
        for bad in ("127.0.0.1:http", "127.0.0.1", "7077", "127.0.0.1:70000",
                    "127.0.0.1:-1"):
            with pytest.raises(ValueError):
                _split_address(bad)

    def test_ipv6_loopback_cluster(self, tmp_path):
        if not ipv6_loopback_available():
            pytest.skip("cannot bind an IPv6 socket to ::1")
        ds = generate_synthetic(200, 6, 2.0, seed=5)
        model, _, statuses = run_cluster(tmp_path, [ds], "logistic", CFG,
                                         rounds=3, host="[::1]")
        assert statuses == [0]
        oracle = local_train_rounds(ds, "logistic", CFG, rounds=3, worker_id=1)
        assert np.max(np.abs(model.weights - oracle.weights)) < 1e-9
        assert abs(model.bias - oracle.bias) < 1e-9


class TestThreeWorkers:
    def test_deterministic_and_learns(self, tmp_path):
        pool = generate_synthetic(1300, 10, 3.0, seed=2)
        ds = pool.take(range(900))
        holdout = pool.take(range(900, 1300))
        parts, _ = split_parts(ds, 3, shuffle_seed=0)
        first, rec1, st1 = run_cluster(tmp_path, parts, "logistic", CFG,
                                       rounds=4, holdout=holdout)
        second, rec2, st2 = run_cluster(tmp_path, parts, "logistic", CFG,
                                        rounds=4, holdout=holdout)
        assert st1 == st2 == [0, 0, 0]
        assert np.array_equal(first.weights, second.weights)
        assert first.bias == second.bias
        assert rec1.holdout_auc == rec2.holdout_auc
        assert rec1.holdout_auc > 0.9
        assert rec1.num_workers == 3

    def test_byte_accounting(self, tmp_path):
        ds = generate_synthetic(120, 6, 2.0, seed=3)
        parts, _ = split_parts(ds, 2, shuffle_seed=1)
        _, record, _ = run_cluster(tmp_path, parts, "svm", CFG, rounds=3)
        count = 7  # 6 weights + bias
        for r in range(3):
            assert record.round_bytes_sent[r] == 2 * codec.params_frame_size(count)
            assert record.round_bytes_received[r] == 2 * codec.update_frame_size(count)
        assert record.handshake_bytes_received == 2 * 21  # HELLO
        assert record.handshake_bytes_sent == 2 * (34 + 5)  # CONFIG, DONE
        assert record.bytes_sent == (record.handshake_bytes_sent
                                     + sum(record.round_bytes_sent))


class TestAggregate:
    def test_equal_counts_is_plain_mean(self):
        a, b = np.array([1.0, 3.0]), np.array([3.0, 5.0])
        out = _aggregate({1: (10, a), 2: (10, b)})
        assert np.array_equal(out, np.array([2.0, 4.0]))

    def test_weighted_by_sample_count(self):
        out = _aggregate({1: (1, np.array([0.0])), 2: (3, np.array([4.0]))})
        assert np.array_equal(out, np.array([3.0]))

    def test_arrival_order_invariant(self):
        rng = np.random.default_rng(0)
        updates = {i: (int(rng.integers(1, 50)), rng.normal(size=5))
                   for i in (4, 1, 3, 2)}
        forward = _aggregate(dict(sorted(updates.items())))
        backward = _aggregate(dict(sorted(updates.items(), reverse=True)))
        assert np.array_equal(forward, backward)

    def test_zero_samples_rejected(self):
        with pytest.raises(ProtocolError):
            _aggregate({1: (0, np.zeros(2))})


def honest_update(frame, config, ds, worker_id=1) -> bytes:
    """The UPDATE a well-behaved worker sends in answer to a PARAMS frame."""
    values = frame.data["values"]
    rng = epoch_rng(config["seed"], worker_id, frame.data["round"])
    w, b = local_epoch(config["algo"], values[:-1], values[-1], ds.features, ds.labels,
                       config["lambda_"], config["lr"], rng)
    return codec.pack_update(frame.data["round"], ds.num_rows, np.append(w, b))


def drain(stream):
    """Read the master's frames until it closes the connection."""
    try:
        while codec.read_frame(stream) is not None:
            pass
    except OSError:
        pass


def scripted_run(ds, script, rounds=2, timeout_s=0.3):
    """run_master against one scripted worker, id 1, that has sent its HELLO.

    script(sock, stream, config) talks to the master from CONFIG on; its
    connection closes when it returns. Returns the master's result dict.
    """
    spec = ClusterSpec("127.0.0.1:0", [(1, 4, "scripted")],
                       round_timeout_s=timeout_s, max_rounds=rounds)
    thread, result, ready = start_master(spec, "logistic", CFG, rounds)
    assert ready.wait(5.0)

    def worker():
        with socket.create_connection(("127.0.0.1", result["port"]), timeout=5.0) as sock, \
                sock.makefile("rb") as stream:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(codec.pack_hello(1, ds.num_rows, ds.num_features))
            script(sock, stream, codec.read_frame(stream).data)

    wt = threading.Thread(target=worker, daemon=True)
    wt.start()
    thread.join(10.0)
    wt.join(10.0)
    assert not thread.is_alive() and not wt.is_alive()
    return result


def assert_matches_oracle(result, ds, rounds=2):
    assert "error" not in result, result.get("error")
    oracle = local_train_rounds(ds, "logistic", CFG, rounds=rounds, worker_id=1)
    assert np.max(np.abs(result["model"].weights - oracle.weights)) < 1e-9
    assert abs(result["model"].bias - oracle.bias) < 1e-9


# what a faulty worker sends in round 0 in place of its update (then it closes
# its sending side), and what the run's error must say
BAD_REPLIES = {
    "closes": (lambda ds, update: b"", "worker 1 closed its connection mid-run"),
    "half_frame": (lambda ds, update: update[:len(update) // 2],
                   "worker 1 connection failed"),
    "error_frame": (lambda ds, update: codec.pack_error("disk full"),
                    "worker 1 reported: disk full"),
    "wrong_kind": (lambda ds, update: codec.pack_hello(1, ds.num_rows, ds.num_features),
                   "worker 1 sent a hello frame during round 0"),
    "wrong_count": (lambda ds, update: codec.pack_update(0, ds.num_rows, np.zeros(3)),
                    "worker 1 sent 3 parameters, expected 5"),
}


class TestFailureModes:
    @pytest.mark.parametrize("fault", sorted(BAD_REPLIES))
    def test_bad_reply_fails_naming_worker(self, fault):
        ds = generate_synthetic(40, 4, 2.0, seed=9)
        reply, message = BAD_REPLIES[fault]

        def script(sock, stream, config):
            update = honest_update(codec.read_frame(stream), config, ds)
            sock.sendall(reply(ds, update))
            sock.shutdown(socket.SHUT_WR)
            drain(stream)

        result = scripted_run(ds, script)
        assert isinstance(result.get("error"), ProtocolError)
        assert message in str(result["error"])

    def test_stale_update_ignored(self):
        ds = generate_synthetic(40, 4, 2.0, seed=10)

        def script(sock, stream, config):
            while (frame := codec.read_frame(stream)).kind == "params":
                if frame.data["round"] == 1:  # a late answer to round 0 comes first
                    sock.sendall(codec.pack_update(0, ds.num_rows, np.full(5, 9.0)))
                sock.sendall(honest_update(frame, config, ds))

        assert_matches_oracle(scripted_run(ds, script), ds)

    def test_duplicate_update_after_retry_counted_once(self):
        ds = generate_synthetic(40, 4, 2.0, seed=11)

        def script(sock, stream, config):
            first = codec.read_frame(stream)
            codec.read_frame(stream)  # the retry of round 0, sent at its deadline
            sock.sendall(honest_update(first, config, ds))
            sock.sendall(codec.pack_update(0, ds.num_rows, np.full(5, 9.0)))
            while (frame := codec.read_frame(stream)).kind == "params":
                sock.sendall(honest_update(frame, config, ds))

        result = scripted_run(ds, script)
        assert_matches_oracle(result, ds)
        record = result["record"]
        assert record.round_bytes_sent[0] == 2 * codec.params_frame_size(5)
        assert sum(record.round_bytes_received) == 3 * codec.update_frame_size(5)

    def test_round_timeout_past_the_longest_epoll_wait(self):
        ds = generate_synthetic(40, 4, 2.0, seed=13)

        def script(sock, stream, config):
            while (frame := codec.read_frame(stream)).kind == "params":
                sock.sendall(honest_update(frame, config, ds))

        assert_matches_oracle(scripted_run(ds, script, rounds=1, timeout_s=1e7), ds, rounds=1)

    def test_update_in_small_pieces(self):
        ds = generate_synthetic(40, 4, 2.0, seed=12)

        def script(sock, stream, config):
            while (frame := codec.read_frame(stream)).kind == "params":
                update = honest_update(frame, config, ds)
                for i in range(0, len(update), 3):
                    sock.sendall(update[i:i + 3])
                    time.sleep(0.002)

        assert_matches_oracle(scripted_run(ds, script), ds)

    def test_no_deadlock_when_both_ends_send_at_once(self, monkeypatch):
        # with socket buffers this small, a 200 kB frame only moves while the
        # other end reads: the master must keep reading the worker's late
        # update while its retry of the same round still waits to be sent
        listen = master._listen

        def small_buffer_listen(address):
            server = listen(address)
            for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):
                server.setsockopt(socket.SOL_SOCKET, option, 4096)
            return server

        monkeypatch.setattr(master, "_listen", small_buffer_listen)
        width = 25_000
        spec = ClusterSpec("127.0.0.1:0", [(1, 4, "big")], round_timeout_s=0.3, max_rounds=1)
        thread, result, ready = start_master(spec, "logistic", CFG, 1)
        assert ready.wait(5.0)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):
            sock.setsockopt(socket.SOL_SOCKET, option, 4096)
        sock.settimeout(5.0)
        with sock, sock.makefile("rb") as stream:
            sock.connect(("127.0.0.1", result["port"]))
            sock.sendall(codec.pack_hello(1, 10, width))
            assert codec.read_frame(stream).kind == "config"
            assert codec.read_frame(stream).kind == "params"
            header = stream.read(4)  # the retry of round 0 has begun to arrive
            sock.sendall(codec.pack_update(0, 10, np.ones(width + 1)))
            stream.read(struct.unpack(">I", header)[0])
            drain(stream)
        thread.join(10.0)
        assert not thread.is_alive()
        assert "error" not in result, result.get("error")
        assert np.array_equal(result["model"].weights, np.ones(width))
        assert result["record"].round_bytes_sent == [2 * codec.params_frame_size(width + 1)]

    @pytest.mark.parametrize("stray_bytes", [b"", codec.pack_done(), b"\x00\x00\x00\x02\x99\x00"],
                             ids=["silent", "not_hello", "malformed"])
    def test_stray_connection_does_not_stall_accept(self, tmp_path, stray_bytes):
        ds = generate_synthetic(40, 4, 2.0, seed=13)
        path = tmp_path / "part.csv"
        save_dense(ds, path)
        spec = ClusterSpec("127.0.0.1:0", [(1, 4, str(path))],
                           round_timeout_s=1.5, max_rounds=2)
        t0 = time.perf_counter()
        thread, result, ready = start_master(spec, "logistic", CFG, 2)
        assert ready.wait(5.0)
        with socket.create_connection(("127.0.0.1", result["port"]), timeout=5.0) as stray:
            stray.sendall(stray_bytes)  # connected ahead of worker 1, then says no more
            wt, wres = start_worker(result["port"], path, 1)
            thread.join(10.0)
            wt.join(5.0)
        assert_matches_oracle(result, ds)
        assert wres["status"] == 0
        assert time.perf_counter() - t0 < spec.round_timeout_s

    def test_frame_between_hello_and_config_fails_naming_worker(self):
        ds = generate_synthetic(40, 4, 2.0, seed=14)
        spec = ClusterSpec("127.0.0.1:0", [(1, 4, "a"), (2, 4, "b")],
                           round_timeout_s=0.5, max_rounds=1)
        thread, result, ready = start_master(spec, "logistic", CFG, 1)
        assert ready.wait(5.0)
        with socket.create_connection(("127.0.0.1", result["port"]), timeout=5.0) as sock:
            # an update before any CONFIG, while worker 2 has yet to connect
            sock.sendall(codec.pack_hello(1, ds.num_rows, ds.num_features)
                         + codec.pack_update(0, ds.num_rows, np.zeros(5)))
            thread.join(10.0)
        assert not thread.is_alive()
        assert isinstance(result.get("error"), ProtocolError)
        assert "worker 1 sent" in str(result["error"])
        assert "before config" in str(result["error"])

    def test_missing_worker_fails_listing_id(self, tmp_path):
        ds = generate_synthetic(60, 4, 2.0, seed=4)
        path = tmp_path / "part.csv"
        save_dense(ds, path)
        spec = ClusterSpec("127.0.0.1:0", [(1, 4, str(path)), (2, 4, "absent")],
                           round_timeout_s=0.6, max_rounds=3)
        thread, result, ready = start_master(spec, "logistic", CFG, 2)
        assert ready.wait(5.0)
        wt, wres = start_worker(result["port"], path, 1)
        thread.join(10.0)
        wt.join(10.0)
        assert isinstance(result.get("error"), ProtocolError)
        message = str(result["error"])
        assert "[2]" in message
        assert "round_timeout_s" in message and "accept window" in message
        assert "parses its whole part before HELLO" in message
        assert wres["status"] != 0

    def test_round_timeout_retries_once_then_succeeds(self, tmp_path):
        ds = generate_synthetic(80, 4, 2.0, seed=6)
        path = tmp_path / "part.csv"
        save_dense(ds, path)
        spec = ClusterSpec("127.0.0.1:0", [(1, 4, str(path))],
                           round_timeout_s=0.8, max_rounds=3)
        thread, result, ready = start_master(spec, "logistic", CFG, 2)
        assert ready.wait(5.0)

        def slow_worker():
            sock = socket.create_connection(("127.0.0.1", result["port"]), timeout=10)
            stream = sock.makefile("rb")
            sock.sendall(codec.pack_hello(1, ds.num_rows, ds.num_features))
            config, slept = None, False
            answered = set()
            while True:
                frame = codec.read_frame(stream)
                if frame is None or frame.kind in ("done", "error"):
                    break
                if frame.kind == "config":
                    config = frame.data
                    continue
                round_ = frame.data["round"]
                if not slept:
                    slept = True
                    time.sleep(1.1)  # past the first deadline, inside the retry
                if round_ in answered:
                    continue  # retry broadcast: reply only once
                answered.add(round_)
                w, b = frame.data["values"][:-1], frame.data["values"][-1]
                rng = epoch_rng(config["seed"], 1, round_)
                w, b = local_epoch(config["algo"], w, b, ds.features, ds.labels,
                                   config["lambda_"], config["lr"], rng)
                sock.sendall(codec.pack_update(round_, ds.num_rows, np.append(w, b)))
            sock.close()

        wt = threading.Thread(target=slow_worker, daemon=True)
        wt.start()
        thread.join(20.0)
        wt.join(10.0)
        assert "error" not in result, result.get("error")
        record = result["record"]
        # round 0 was broadcast twice: the original send plus one retry
        assert record.round_bytes_sent[0] == 2 * codec.params_frame_size(5)
        assert record.round_bytes_sent[1] == codec.params_frame_size(5)
        oracle = local_train_rounds(ds, "logistic", CFG, rounds=2, worker_id=1)
        assert np.max(np.abs(result["model"].weights - oracle.weights)) < 1e-9

    def test_permanent_timeout_fails_listing_culprit(self, tmp_path):
        ds = generate_synthetic(40, 3, 2.0, seed=7)
        spec = ClusterSpec("127.0.0.1:0", [(5, 4, "x")],
                           round_timeout_s=0.3, max_rounds=2)
        thread, result, ready = start_master(spec, "svm", CFG, 1)
        assert ready.wait(5.0)

        def silent_worker():
            sock = socket.create_connection(("127.0.0.1", result["port"]), timeout=10)
            sock.sendall(codec.pack_hello(5, ds.num_rows, ds.num_features))
            time.sleep(3.0)
            sock.close()

        wt = threading.Thread(target=silent_worker, daemon=True)
        wt.start()
        thread.join(15.0)
        wt.join(10.0)
        assert isinstance(result.get("error"), ProtocolError)
        assert "workers [5]" in str(result["error"])
        assert "round 0" in str(result["error"])


def fake_master(script):
    """Minimal scripted master: accepts one worker, runs script(sock, stream).

    Returns (thread, port, out) where out collects frames the script reads.
    """
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen()
    port = server.getsockname()[1]
    out = {}

    def target():
        with server:
            server.settimeout(10.0)
            sock, _ = server.accept()
            with sock:
                stream = sock.makefile("rb")
                script(sock, stream, out)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, port, out


class TestWorker:
    def part(self, tmp_path):
        ds = generate_synthetic(50, 4, 2.0, seed=8)
        path = tmp_path / "part.csv"
        save_dense(ds, path)
        return ds, path

    def test_done_immediately_clean_exit(self, tmp_path):
        _, path = self.part(tmp_path)

        def script(sock, stream, out):
            out["hello"] = codec.read_frame(stream)
            sock.sendall(codec.pack_done())

        thread, port, out = fake_master(script)
        status = run_worker(f"127.0.0.1:{port}", path, 9)
        thread.join(5.0)
        assert status == 0
        assert out["hello"].kind == "hello"
        assert out["hello"].data["worker_id"] == 9
        assert out["hello"].data["num_rows"] == 50
        assert out["hello"].data["num_features"] == 4

    def test_malformed_frame_drops_connection_nonzero(self, tmp_path):
        _, path = self.part(tmp_path)

        def script(sock, stream, out):
            codec.read_frame(stream)
            sock.sendall(struct.pack(">I", 2) + b"\x99\x00")

        thread, port, _ = fake_master(script)
        status = run_worker(f"127.0.0.1:{port}", path, 1)
        thread.join(5.0)
        assert status == 3

    def test_unparseable_part_sends_error_and_exits_2(self, tmp_path):
        path = tmp_path / "garbage.csv"
        path.write_text("not,a;valid!part\n###\n")

        def script(sock, stream, out):
            out["frame"] = codec.read_frame(stream)

        thread, port, out = fake_master(script)
        status = run_worker(f"127.0.0.1:{port}", path, 2)
        thread.join(5.0)
        assert status == 2
        assert out["frame"].kind == "error"
        assert "bad part" in out["frame"].data["message"]

    def test_params_before_config_is_protocol_error(self, tmp_path):
        ds, path = self.part(tmp_path)

        def script(sock, stream, out):
            codec.read_frame(stream)
            sock.sendall(codec.pack_params(0, np.zeros(ds.num_features + 1)))
            codec.read_frame(stream)  # wait for the drop

        thread, port, _ = fake_master(script)
        status = run_worker(f"127.0.0.1:{port}", path, 1)
        thread.join(5.0)
        assert status == 3

    def test_wrong_width_params_is_protocol_error(self, tmp_path):
        _, path = self.part(tmp_path)

        def script(sock, stream, out):
            codec.read_frame(stream)
            sock.sendall(codec.pack_config("logistic", 1, 0, 0.01, 0.1))
            sock.sendall(codec.pack_params(0, np.zeros(2)))  # part has 4 features
            codec.read_frame(stream)

        thread, port, _ = fake_master(script)
        status = run_worker(f"127.0.0.1:{port}", path, 1)
        thread.join(5.0)
        assert status == 3

    def test_lost_connection_after_hello_is_final(self, tmp_path):
        # the master takes each HELLO once, so the worker must not re-send it
        _, path = self.part(tmp_path)
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.bind(("127.0.0.1", 0))
        server.listen()
        server.settimeout(0.2)
        hellos = []
        stop = threading.Event()

        def drop_after_hello():
            while not stop.is_set():
                try:
                    sock, _ = server.accept()
                except socket.timeout:
                    continue
                with sock, sock.makefile("rb") as stream:
                    hellos.append(codec.read_frame(stream))

        thread = threading.Thread(target=drop_after_hello, daemon=True)
        thread.start()
        with server:
            status = run_worker(f"127.0.0.1:{server.getsockname()[1]}", path, 4,
                                reconnect_attempts=3, reconnect_delay_s=0.01)
            time.sleep(0.3)  # room for a second connection to arrive
            stop.set()
            thread.join(5.0)
        assert not thread.is_alive()
        assert status == 3
        assert [frame.kind for frame in hellos] == ["hello"]

    def test_unreachable_master_bounded_attempts(self, tmp_path):
        _, path = self.part(tmp_path)
        t0 = time.perf_counter()
        status = run_worker("127.0.0.1:1", path, 1,
                            reconnect_attempts=2, reconnect_delay_s=0.01)
        assert status == 3
        assert time.perf_counter() - t0 < 5.0

    def test_connect_sleeps_only_between_attempts(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("deskbench.distbench.worker.time.sleep", sleeps.append)
        with pytest.raises(ProtocolError, match="after 3 attempts"):
            _connect("127.0.0.1:1", 3, 0.5)
        assert sleeps == [0.5, 0.5]

    @pytest.mark.parametrize("address", ["127.0.0.1:http", "127.0.0.1", "127.0.0.1:70000"])
    def test_malformed_address_exits_3_before_loading(self, tmp_path, address, caplog):
        status = run_worker(address, tmp_path / "never-read.csv", 1)
        assert status == 3
        assert "bad master address" in caplog.text


class TestLocalEpoch:
    def test_deterministic(self):
        ds = generate_synthetic(100, 5, 2.0, seed=9)
        rng1 = epoch_rng(3, 1, 0)
        rng2 = epoch_rng(3, 1, 0)
        w1, b1 = local_epoch("svm", np.zeros(5), 0.0, ds.features, ds.labels,
                             0.01, 0.1, rng1)
        w2, b2 = local_epoch("svm", np.zeros(5), 0.0, ds.features, ds.labels,
                             0.01, 0.1, rng2)
        assert np.array_equal(w1, w2)
        assert b1 == b2

    def test_round_seed_changes_epoch(self):
        ds = generate_synthetic(100, 5, 2.0, seed=9)
        w1, _ = local_epoch("logistic", np.zeros(5), 0.0, ds.features, ds.labels,
                            0.01, 0.1, epoch_rng(3, 1, 0))
        w2, _ = local_epoch("logistic", np.zeros(5), 0.0, ds.features, ds.labels,
                            0.01, 0.1, epoch_rng(3, 1, 1))
        assert not np.array_equal(w1, w2)

    def test_inputs_not_mutated(self):
        ds = generate_synthetic(40, 3, 2.0, seed=10)
        w0 = np.ones(3)
        local_epoch("logistic", w0, 0.5, ds.features, ds.labels, 0.01, 0.1,
                    epoch_rng(0, 1, 0))
        assert np.array_equal(w0, np.ones(3))

    def test_local_bench_learns_separable_data(self):
        pool = generate_synthetic(900, 10, 3.0, seed=11)
        ds = pool.take(range(600))
        holdout = pool.take(range(600, 900))
        cfg = SgdConfig(lambda_=0.01, epochs_or_iters=1, learning_rate=0.1, seed=0)
        _, result = run_local_bench(ds, "logistic", cfg, rounds=5, holdout=holdout)
        assert result.auc_roc > 0.9
        assert result.wall_clock_s > 0
        assert result.rounds == 5


class TestBenchCompare:
    def local(self, wall=300.0, auc=0.9402):
        return LocalBenchResult("svm", "m1", 10, wall, auc)

    def dist(self, wall=150.0, auc=0.9504):
        return BenchRecord(algo="svm", manifest="m1", num_workers=3,
                           wall_clock_s=wall, holdout_auc=auc)

    def test_speedup_two(self):
        rows = bench_compare(self.local(), self.dist())
        assert rows[1]["speedup"] == pytest.approx(2.0)
        assert rows[0]["mode"] == "local"
        assert rows[1]["mode"] == "distributed"

    def test_identical_timings_speedup_one(self):
        rows = bench_compare(self.local(wall=150.0), self.dist(wall=150.0))
        assert rows[1]["speedup"] == pytest.approx(1.0)

    def test_algorithm_mismatch(self):
        dist = self.dist()
        dist.algo = "logistic"
        with pytest.raises(DataFormatError, match="algorithm"):
            bench_compare(self.local(), dist)

    def test_manifest_mismatch(self):
        dist = self.dist()
        dist.manifest = "other"
        with pytest.raises(DataFormatError, match="manifest"):
            bench_compare(self.local(), dist)

    def test_csv_four_decimal_auc(self):
        text = render_comparison_csv(bench_compare(self.local(), self.dist()))
        lines = text.splitlines()
        assert lines[0] == "algorithm,mode,wall_clock_s,auc_roc,speedup"
        assert lines[1] == "svm,local,300.00,0.9402,"
        assert lines[2] == "svm,distributed,150.00,0.9504,2.00"
        assert lines[3].startswith("#")

    def test_missing_auc_renders_empty(self):
        rows = bench_compare(self.local(auc=None), self.dist(auc=None))
        text = render_comparison_csv(rows)
        assert "svm,local,300.00,," in text

    def test_record_json_round_trip(self):
        record = self.dist()
        record.round_wall_clock_s = [0.1, 0.2]
        record.round_bytes_sent = [10, 10]
        record.round_bytes_received = [20, 20]
        back = BenchRecord(**json.loads(json.dumps(asdict(record))))
        assert back == record
        local = self.local()
        assert LocalBenchResult(**json.loads(json.dumps(asdict(local)))) == local


class TestClusterSpecValidation:
    def test_duplicate_ids(self):
        with pytest.raises(ConfigError):
            ClusterSpec("h:1", [(1, 4, "a"), (1, 4, "b")])

    def test_empty_workers(self):
        with pytest.raises(ConfigError):
            ClusterSpec("h:1", [])

    def test_bad_rounds_and_timeout(self):
        with pytest.raises(ConfigError):
            ClusterSpec("h:1", [(1, 4, "a")], max_rounds=0)
        with pytest.raises(ConfigError):
            ClusterSpec("h:1", [(1, 4, "a")], round_timeout_s=0.0)

    @pytest.mark.parametrize("timeout", [float("inf"), float("nan")])
    def test_non_finite_timeout(self, timeout):
        with pytest.raises(ConfigError, match="round_timeout_s"):
            ClusterSpec("h:1", [(1, 4, "a")], round_timeout_s=timeout)

    @pytest.mark.parametrize("wid", [-1, 2**32])
    def test_id_outside_hello_range(self, wid):
        with pytest.raises(ConfigError, match="worker ids"):
            ClusterSpec("h:1", [(wid, 4, "a")])

    def test_run_master_validates_algo_and_rounds(self):
        spec = ClusterSpec("127.0.0.1:0", [(1, 4, "a")], max_rounds=2)
        with pytest.raises(ConfigError):
            run_master(spec, "gbt", CFG, 1)
        with pytest.raises(ConfigError):
            run_master(spec, "svm", CFG, rounds=5)

    def test_local_rounds_validation(self):
        ds = generate_synthetic(20, 3, 2.0, seed=0)
        with pytest.raises(ConfigError):
            local_train_rounds(ds, "gbt", CFG, rounds=1)
        with pytest.raises(ConfigError):
            local_train_rounds(ds, "svm", CFG, rounds=0)

    def test_local_rounds_reject_plus_minus_labels(self):
        ds = generate_synthetic(20, 3, 2.0, seed=0)
        plus_minus = DenseDataset(2.0 * ds.labels - 1.0, ds.features)
        with pytest.raises(DataFormatError, match="0/1"):
            local_train_rounds(plus_minus, "logistic", CFG, rounds=1)
        with pytest.raises(DataFormatError, match="0/1"):
            run_local_bench(plus_minus, "svm", CFG, rounds=1)
