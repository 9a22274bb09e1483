"""Acceptance gate: one test per published criterion, each printing a
single pass/fail line with its runtime against the stated budget.

Headline corpus-scale numbers are not reachable on synthetic desk-scale
data, so every check here is either an independent-oracle comparison,
a frozen-fixture equality, or a structural property of the published
protocol of record.
"""

import hashlib
import io
import time
from collections import Counter

import numpy as np

from deskbench import dataio, evaluation, gbt, linmodels, mlp, prep, textfeat
from deskbench.dataio import DenseDataset, TabularFrame, generate_synthetic
from deskbench.distbench import bench, codec
from deskbench.errors import ProtocolError

from oracles import auc_pair_oracle, brute_force_best_split, svm_objective
from test_distbench import run_cluster


def _check(num: int, desc: str, limit_s: float, elapsed: float, ok: bool):
    status = "PASS" if ok and elapsed < limit_s else "FAIL"
    print(f"[{status}] criterion {num:2d} ({elapsed:6.2f}s / {limit_s:.0f}s) {desc}")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < limit_s, f"criterion {num} over budget: {elapsed:.2f}s"


def test_criterion_01_auc_matches_pair_counting_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for trial in range(100):
        n = 200
        labels = np.zeros(n)
        labels[rng.permutation(n)[: rng.integers(1, n)]] = 1.0
        if labels.sum() in (0, n):
            labels[0] = 1.0 - labels[0]
        # coarse grid forces plenty of tied scores
        scores = rng.integers(0, 12, size=n).astype(np.float64) / 4.0
        fast = evaluation.auc_roc(labels, scores)
        slow = auc_pair_oracle(labels, scores)
        worst = max(worst, abs(fast - slow))
    elapsed = time.perf_counter() - start
    _check(1, f"rank AUC vs O(n^2) oracle, max |diff| {worst:.2e}",
           5.0, elapsed, worst < 1e-12)


def test_criterion_02_mlp_gradient_check():
    start = time.perf_counter()
    rng = np.random.default_rng(16)
    arch = mlp.MlpArchitecture(input_size=6, hidden_size=3,
                               num_hidden_blocks=1, output_size=2,
                               dropout_p=0.0)
    model = mlp.init_model(arch, rng)
    X = rng.normal(size=(4, 6))
    labels = np.array([0, 1, 1, 0])
    _, grads = mlp.loss_and_gradients(model, X, labels)

    def loss_only():
        return mlp.loss_and_gradients(model, X, labels)[0]

    h = 1e-5
    params = [
        (model.blocks[0]["w"], grads["blocks"][0]["w"]),
        (model.blocks[0]["b"], grads["blocks"][0]["b"]),
        (model.blocks[0]["gamma"], grads["blocks"][0]["gamma"]),
        (model.blocks[0]["beta"], grads["blocks"][0]["beta"]),
        (model.out_w, grads["out_w"]),
        (model.out_b, grads["out_b"]),
    ]
    worst = 0.0
    for param, grad in params:
        flat = param.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + h
            up = loss_only()
            flat[j] = keep - h
            down = loss_only()
            flat[j] = keep
            fd = (up - down) / (2 * h)
            # BN zeroes the pre-BN bias gradient exactly; floor keeps those
            # coordinates from registering as pure finite-difference noise
            rel = abs(fd - gflat[j]) / max(abs(fd), abs(gflat[j]), 1e-6)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _check(2, f"4x6->3->2 analytic vs central differences, max rel err {worst:.2e}",
           1.0, elapsed, worst < 1e-4)


def test_criterion_03_pegasos_near_convex_oracle(pegasos_oracle_case):
    ds, lam, oracle = pegasos_oracle_case
    start = time.perf_counter()
    model = linmodels.train_pegasos(
        ds, linmodels.SgdConfig(lambda_=lam, epochs_or_iters=100_000, seed=7))
    achieved = svm_objective(model, ds, lam)
    elapsed = time.perf_counter() - start
    _check(3, f"primal objective {achieved:.5f} vs oracle {oracle:.5f} "
              f"({achieved / oracle - 1:+.2%})",
           30.0, elapsed, achieved <= oracle * 1.02)


def test_criterion_04_gbt_root_split_and_monotone_rmse():
    start = time.perf_counter()
    cfg = gbt.GbtConfig(max_depth=1, eta=1.0, num_round=1,
                        min_child_weight=1.0, lambda_=1.0, gamma=0.0)
    agree = 0
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        X = rng.normal(size=(200, 3))
        y = X[:, trial % 3] * 2.0 + rng.normal(size=200) * 0.3
        model = gbt.fit(X, y, cfg)
        root = model.trees[0]
        g = np.full(200, float(y.mean())) - y
        oracle = brute_force_best_split(X, g, cfg.lambda_, cfg.gamma,
                                        cfg.min_child_weight)
        if oracle is None:
            agree += "w" in root
        else:
            _, feat, thresh = oracle
            agree += ("f" in root and root["f"] == feat
                      and abs(root["t"] - thresh) < 1e-12)

    deep = gbt.GbtConfig(max_depth=3, eta=0.1, num_round=100,
                         min_child_weight=2.0, lambda_=1.0, gamma=0.0)
    rng = np.random.default_rng(9)
    X = rng.normal(size=(200, 3))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] + rng.normal(size=200) * 0.1
    model = gbt.fit(X, y, deep)
    preds = np.full(200, model.base_score)
    monotone = True
    last = float(np.sqrt(np.mean((preds - y) ** 2)))
    for tree in model.trees:
        one = gbt.GbtModel(base_score=0.0, trees=[tree], num_features=3)
        preds = preds + gbt.predict(one, X)
        rmse = float(np.sqrt(np.mean((preds - y) ** 2)))
        if rmse > last + 1e-12:
            monotone = False
        last = rmse
    elapsed = time.perf_counter() - start
    _check(4, f"root split oracle {agree}/20, 100-round train RMSE "
              f"monotone={monotone} (final {last:.4f})",
           60.0, elapsed, agree == 20 and monotone)


def test_criterion_05_distributed_equals_local(tmp_path):
    start = time.perf_counter()
    cfg = linmodels.SgdConfig(lambda_=0.01, epochs_or_iters=1,
                              learning_rate=0.05, seed=3)
    small = generate_synthetic(300, 10, 2.0, seed=1)
    dist_model, _, statuses = run_cluster(tmp_path, [small], "logistic", cfg,
                                          rounds=5)
    local_model = bench.local_train_rounds(small, "logistic", cfg, 5, worker_id=1)
    gap = max(float(np.max(np.abs(dist_model.weights - local_model.weights))),
              abs(dist_model.bias - local_model.bias))

    pool = generate_synthetic(12500, 200, 4.0, seed=2)
    train = pool.take(range(10000))
    holdout = pool.take(range(10000, 12500))
    parts, _ = dataio.split_parts(train, 3, shuffle_seed=0)
    _, record, statuses3 = run_cluster(tmp_path, parts, "logistic", cfg,
                                       rounds=10, timeout_s=60.0,
                                       holdout=holdout)
    local10 = bench.local_train_rounds(train, "logistic", cfg, 10, worker_id=1)
    local_auc = evaluation.auc_roc(
        holdout.labels, linmodels.decision_scores(local10, holdout))
    auc_gap = abs(record.holdout_auc - local_auc)
    elapsed = time.perf_counter() - start
    ok = (gap < 1e-9 and statuses == [0] and statuses3 == [0, 0, 0]
          and auc_gap <= 0.02)
    _check(5, f"1-worker param gap {gap:.2e}; 3-worker 10000x200 AUC "
              f"{record.holdout_auc:.4f} vs local {local_auc:.4f} "
              f"(|diff| {auc_gap:.4f})",
           180.0, elapsed, ok)


def test_criterion_06_protocol_round_trips_and_fuzz():
    start = time.perf_counter()
    frames = [
        codec.pack_hello(7, 123456789, 2000),
        codec.pack_config("svm", 42, 2**63 - 1, 1e-300, -0.0),
        codec.pack_params(3, np.array([0.0, -0.0, np.pi, 1e300, -1e-300])),
        codec.pack_update(9, 54321, np.array([1.5, -2.25, 0.1])),
        codec.pack_done(),
        codec.pack_error("worker 3: bad part: línea 17"),
    ]
    repack = {
        "hello": lambda d: codec.pack_hello(d["worker_id"], d["num_rows"],
                                            d["num_features"]),
        "config": lambda d: codec.pack_config(d["algo"], d["round_count"],
                                              d["seed"], d["lambda_"], d["lr"]),
        "params": lambda d: codec.pack_params(d["round"], d["values"]),
        "update": lambda d: codec.pack_update(d["round"], d["sample_count"],
                                              d["values"]),
        "done": lambda d: codec.pack_done(),
        "error": lambda d: codec.pack_error(d["message"]),
    }
    bit_exact = True
    for wire in frames:
        frame = codec.read_frame(io.BytesIO(wire))
        bit_exact &= repack[frame.kind](frame.data) == wire

    rng = np.random.default_rng(6)
    crashes = 0
    for _ in range(400):
        payload = rng.integers(0, 256, size=rng.integers(1, 80)).astype("u1")
        try:
            codec.unpack(payload.tobytes())
        except ProtocolError:
            pass
        except Exception:
            crashes += 1
    stream_bytes = b"".join(frames)
    for cut in range(0, len(stream_bytes), 7):
        reader = io.BytesIO(stream_bytes[:cut])
        try:
            while codec.read_frame(reader) is not None:
                pass
        except ProtocolError:
            pass
        except Exception:
            crashes += 1
    oversize = (codec.MAX_FRAME + 1).to_bytes(4, "big")
    try:
        codec.read_frame(io.BytesIO(oversize + b"\x03"))
        crashes += 1  # oversize must not be accepted silently
    except ProtocolError:
        pass
    elapsed = time.perf_counter() - start
    _check(6, f"6 frame kinds bit-exact={bit_exact}, 400 fuzzed payloads + "
              f"truncation sweep, {crashes} crashes",
           30.0, elapsed, bit_exact and crashes == 0)


TFIDF_DIGEST = "3357bda801d79c77055daa3ccc9b5712716a49e9c5c1e6f14b0ae9549e99d3a7"


def test_criterion_07_hashed_tfidf_fixture():
    start = time.perf_counter()
    docs = []
    for i in range(20):
        words = ["alpha", "alpha"] if i < 12 else ["omega"]
        if i in (0, 5, 9):
            words.append("beta")
        if i in (3, 7):
            words.append("gamma")
        if i == 11:
            words.append("delta")
        words.append(f"doc{i}")
        docs.append(" ".join(words))

    vectors, model = textfeat.vectorize_corpus(docs, dim=512, min_doc_freq=3)
    again, _ = textfeat.vectorize_corpus(docs, dim=512, min_doc_freq=3)
    serialized = "\n".join(v.to_json() for v in vectors)
    digest = hashlib.sha256(serialized.encode()).hexdigest()
    stable = serialized == "\n".join(v.to_json() for v in again)

    tracked = ["alpha", "beta", "gamma", "delta", "omega"] + \
              [f"doc{i}" for i in range(20)]
    slots = {t: textfeat.hashed_tf([t], 512).indices[0] for t in tracked}
    collision_free = len(set(slots.values())) == len(tracked)
    dfs_ok, zeroing_ok = True, True
    for token in tracked:
        hand_df = sum(1 for d in docs if token in d.split())
        slot = slots[token]
        dfs_ok &= model.doc_freq[slot] == hand_df
        zeroing_ok &= (model.idf[slot] == 0.0) == (hand_df < 3)
    elapsed = time.perf_counter() - start
    ok = (digest == TFIDF_DIGEST and stable and collision_free
          and dfs_ok and zeroing_ok)
    _check(7, f"20-doc corpus digest {digest[:12]}.. frozen-match={digest == TFIDF_DIGEST}, "
              f"hand dfs={dfs_ok}, minDocFreq=3 zeroing={zeroing_ok}",
           5.0, elapsed, ok)


def test_criterion_08_imputation_fallback_chain():
    start = time.perf_counter()
    directors = ["D0", "D1", "D2", "D3", "D4"]
    genres = ["Drama", "War", "Comedy", "Scifi"]
    columns = [("director", "text"), ("genre", "text"), ("rating", "number")]
    cells = []
    for i in range(35):  # present-target rows define the group means
        director = directors[i % 5]
        genre = genres[i % 4]
        cells.append([director, genre, 4.0 + (i % 5) + 0.1 * (i % 4)])
    # engineered missingness, one fallback stage per block
    for i in range(5):
        cells.append([directors[i], genres[(i + 1) % 4], None])    # director mean
    cells.append(["Dnew", "Drama", None])                          # genre mean
    cells.append(["Dnew", "War", None])                            # genre mean
    cells.append([None, "Comedy", None])                           # genre mean
    cells.append(["D0, D2", None, None])                           # multi-value mean of means
    cells.append([None, None, None])                               # global mean
    for i in range(5):
        cells.append([directors[(i + 2) % 5], None, None])         # director mean
    frame = TabularFrame(columns, cells)
    assert frame.num_rows == 50

    # independent hand execution of the fallback chain
    present = [(r[0], r[1], r[2]) for r in cells if r[2] is not None]
    def mean(values):
        return sum(values) / len(values)
    d_means, g_means = {}, {}
    for d in set(p[0] for p in present):
        d_means[d] = mean([p[2] for p in present if p[0] == d])
    for g in set(p[1] for p in present):
        g_means[g] = mean([p[2] for p in present if p[1] == g])
    global_mean = mean([p[2] for p in present])

    def expect(row):
        if row[2] is not None:
            return row[2]
        if row[0] is not None:
            listed = [v.strip() for v in row[0].split(",")]
            known = [d_means[v] for v in listed if v in d_means]
            if known:
                return mean(known)
        if row[1] is not None and row[1] in g_means:
            return g_means[row[1]]
        return global_mean

    expected = [expect(row) for row in cells]
    plan = prep.impute_fit(frame, "rating", ("director", "genre"))
    filled = prep.impute_apply(frame, plan).column("rating")
    none_left = sum(1 for v in filled if v is None)
    worst = max(abs(a - b) for a, b in zip(filled, expected))
    elapsed = time.perf_counter() - start
    _check(8, f"50-row fixture, max |fill - hand oracle| {worst:.2e}, "
              f"{none_left} missing left",
           1.0, elapsed, worst < 1e-12 and none_left == 0)


def test_criterion_09_ring_undersampling_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    shells = []
    for radius in (1.0, 5.0, 10.0):
        angles = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
        ring = np.stack([radius * np.cos(angles), radius * np.sin(angles)], axis=1)
        shells.append(ring + rng.normal(scale=0.01, size=ring.shape))
    points = np.concatenate(shells)
    cfg = prep.RingConfig(target_size=50, num_rings=10, seed=4)
    picked = prep.ring_undersample(points, cfg)
    again = prep.ring_undersample(points, cfg)

    size_ok = len(picked) == 50
    subset_ok = all(0 <= i < 120 for i in picked) and len(set(picked)) == 50
    deterministic = picked == again

    # independent ring reconstruction and largest-remainder quotas
    centroid = points.mean(axis=0)
    dists = np.linalg.norm(points - centroid, axis=1)
    order = np.lexsort((np.arange(120), dists))
    rings = np.array_split(order, 10)
    shares = [50 * len(r) / 120 for r in rings]
    quotas = [int(s) for s in shares]
    remainders = sorted(range(10), key=lambda i: (-(shares[i] - quotas[i]), i))
    for i in remainders[: 50 - sum(quotas)]:
        quotas[i] += 1
    picked_set = set(picked)
    quota_ok = all(
        sum(1 for idx in ring if idx in picked_set) == quotas[j]
        for j, ring in enumerate(rings)
    )
    elapsed = time.perf_counter() - start
    _check(9, f"3-shell 120->50: exact size={size_ok}, subset={subset_ok}, "
              f"per-ring quotas={quota_ok}, deterministic={deterministic}",
           5.0, elapsed, size_ok and subset_ok and quota_ok and deterministic)


def test_criterion_10_protocol_of_record():
    start = time.perf_counter()
    algos = ["logistic", "forest", "mlp", "gbt", "svm"]
    plan = evaluation.build_assignment_plan(algos, list(range(5)))
    pairings = {iid: frozenset(pair) for iid, pair, _ in plan.instances}
    table_ok = pairings == {
        "A": frozenset({"logistic", "forest"}),
        "B": frozenset({"mlp", "logistic"}),
        "C": frozenset({"gbt", "mlp"}),
        "D": frozenset({"svm", "gbt"}),
        "E": frozenset({"svm", "forest"}),
    }
    appearances = Counter(a for _, pair, _ in plan.instances for a in pair)
    twice_ok = all(appearances[a] == 2 for a in algos) and len(appearances) == 5

    calls = {"n": 0}

    class StubPredictor:
        def predict(self, features):
            return np.zeros(len(features), dtype=np.int64)

        def score(self, features):
            return np.asarray(features)[:, 0]

    def stub_factory(**params):
        calls["n"] += 1
        return lambda train_ds: StubPredictor()

    rng = np.random.default_rng(3)
    ds = DenseDataset((rng.random(40) < 0.5).astype(np.float64),
                      rng.normal(size=(40, 2)))
    grid = {"a": [1, 2, 3], "b": [1, 2, 3], "c": [1, 2], "d": [1, 2]}
    _, points = evaluation.grid_search(grid, 2, ds, stub_factory, seed=0)
    grid_ok = len(points) == 36 and calls["n"] == 36

    polarity = {1: 5441, 2: 5496, 3: 15519, 4: 45034, 5: 136561}
    labels = np.repeat(list(polarity.keys()), list(polarity.values()))
    report = prep.class_report(labels)
    fixture_ok = report.total == 208051 and report.counts[0] == (5, 136561)
    elapsed = time.perf_counter() - start
    _check(10, f"Table pairings={table_ok} each-twice={twice_ok}, "
               f"grid combos={len(points)}, polarity total={report.total}",
           5.0, elapsed, table_ok and twice_ok and grid_ok and fixture_ok)


def test_criterion_11_synthetic_dense_benchmark():
    start = time.perf_counter()
    pool = generate_synthetic(10000, 200, 4.0, seed=0)
    train = pool.take(range(8000))
    holdout = pool.take(range(8000, 10000))

    rows = []

    def record(name, fit, score_of, threshold):
        t0 = time.perf_counter()
        model = fit()
        wall = time.perf_counter() - t0
        scores = score_of(model)
        preds = (scores >= threshold).astype(int)
        _, acc = evaluation.confusion_and_accuracy(holdout.labels, preds)
        auc = evaluation.auc_roc(holdout.labels, scores)
        rows.append((name, acc, auc, wall))
        return auc

    sgd = linmodels.SgdConfig(lambda_=1e-4, epochs_or_iters=5, seed=0)
    logistic_auc = record(
        "logistic",
        lambda: linmodels.train_logistic(train, sgd),
        lambda m: linmodels.decision_scores(m, holdout), 0.5)
    pegasos = linmodels.SgdConfig(lambda_=1e-4, epochs_or_iters=2 * train.num_rows,
                                  seed=0)
    record("svm",
           lambda: linmodels.train_pegasos(train, pegasos),
           lambda m: linmodels.decision_scores(m, holdout), 0.0)
    arch = mlp.MlpArchitecture(input_size=200, hidden_size=32,
                               num_hidden_blocks=2, dropout_p=0.2)
    cfg = mlp.MlpTrainConfig(learning_rate=1e-2, epochs=5, batch_size=256, seed=0)
    record("mlp",
           lambda: mlp.train(train, arch, cfg)[0],
           lambda m: mlp.softmax(mlp.forward(m, holdout.features, mode="eval"))[:, 1],
           0.5)

    lines = ["algorithm,accuracy,auc_roc,wall_clock_s"]
    lines += [f"{n},{a:.4f},{u:.4f},{w:.2f}" for n, a, u, w in rows]
    csv_text = "\n".join(lines) + "\n"
    shape_ok = (len(csv_text.splitlines()) == 4
                and all(len(line.split(",")) == 4 for line in csv_text.splitlines()))
    elapsed = time.perf_counter() - start
    _check(11, f"logistic holdout AUC {logistic_auc:.4f} (>= 0.95), "
               f"benchmark CSV rows {len(rows)}",
           300.0, elapsed, logistic_auc >= 0.95 and shape_ok)
