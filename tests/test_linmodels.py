import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from deskbench import linmodels as lm
from deskbench.dataio import DenseDataset, generate_synthetic
from deskbench.distbench.bench import local_train_rounds
from deskbench.distbench.worker import LOCAL_EPOCH_BATCH, epoch_rng, local_epoch
from deskbench.errors import ConfigError, DataFormatError
from deskbench.evaluation import auc_roc
from helpers import embedded_view, view_orders
from oracles import (local_epoch_oracle, sigmoid_oracle, svm_objective,
                     train_logistic_oracle, train_pegasos_oracle)


@st.composite
def sgd_cases(draw):
    """(dataset, config): up to a few LOCAL_EPOCH_BATCH batches of rows,
    feature scales 1e-3..1e3, batch sizes of 1, n, above n or between,
    1-3 epochs, and class weights absent or unequal."""
    n = draw(st.integers(1, 2 * LOCAL_EPOCH_BATCH + 20))
    f = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    features = rng.normal(size=(n, f)) * scale
    labels = rng.integers(0, 2, size=n).astype(np.float64)
    batch = draw(st.one_of(st.just(1), st.just(n), st.integers(n + 1, n + 5),
                           st.integers(1, n)))
    weights = draw(st.one_of(st.none(), st.tuples(st.floats(0.1, 10.0),
                                                  st.floats(0.1, 10.0))))
    cfg = lm.SgdConfig(lambda_=draw(st.sampled_from([1e-4, 1e-2, 0.5])),
                       epochs_or_iters=draw(st.integers(1, 3)), batch_size=batch,
                       learning_rate=draw(st.sampled_from([0.01, 0.1, 0.5])),
                       seed=draw(st.integers(0, 1000)), class_weights=weights)
    return DenseDataset(labels, features), cfg


def bits(w, b):
    return w.tobytes(), repr(b)


class TestSgdConfig:
    def test_valid(self):
        cfg = lm.SgdConfig(lambda_=0.1, epochs_or_iters=10)
        assert cfg.project is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lambda_": 0.0, "epochs_or_iters": 1},
            {"lambda_": 1.0, "epochs_or_iters": 0},
            {"lambda_": 1.0, "epochs_or_iters": 1, "batch_size": 0},
            {"lambda_": 1.0, "epochs_or_iters": 1, "learning_rate": 0.0},
            {"lambda_": 1.0, "epochs_or_iters": 1, "class_weights": (1.0, 0.0)},
        ],
    )
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ConfigError):
            lm.SgdConfig(**kwargs)


class TestPegasos:
    def test_hand_executed_first_step(self):
        # one point y=+1 at e1, lambda=1, T=1: margin 0 < 1, eta=1,
        # w = 0*(w) + 1*1*e1 = e1; projection radius 1 leaves it; b = 1
        ds = DenseDataset(np.array([1.0]), np.array([[1.0, 0.0, 0.0, 0.0]]))
        cfg = lm.SgdConfig(lambda_=1.0, epochs_or_iters=1, seed=123)
        model = lm.train_pegasos(ds, cfg)
        assert np.array_equal(model.weights, [1.0, 0.0, 0.0, 0.0])
        assert model.bias == 1.0
        assert model.kind == "svm"

    def test_norm_bound_after_every_step(self):
        # the bound holds on every step of the oracle, whose bits the library's equal
        ds = generate_synthetic(100, 5, separation=1.0, seed=3)
        lam = 0.1
        bound = 1.0 / np.sqrt(lam) + 1e-12
        cfg = lm.SgdConfig(lambda_=lam, epochs_or_iters=500, seed=0)
        seen = []

        def hook(t, w):
            seen.append(t)
            assert np.linalg.norm(w) <= bound

        expected = train_pegasos_oracle(ds, cfg, step_hook=hook)
        assert seen == list(range(1, 501))
        model = lm.train_pegasos(ds, cfg)
        assert bits(model.weights, model.bias) == bits(*expected)

    def test_final_norm_bound(self):
        ds = generate_synthetic(80, 6, separation=0.5, seed=9)
        for lam in (1e-3, 0.5, 10.0):
            model = lm.train_pegasos(ds, lm.SgdConfig(lambda_=lam, epochs_or_iters=2000, seed=1))
            assert np.linalg.norm(model.weights) <= 1.0 / np.sqrt(lam) + 1e-12

    def test_bit_reproducible(self):
        ds = generate_synthetic(60, 8, separation=1.0, seed=4)
        cfg = lm.SgdConfig(lambda_=0.01, epochs_or_iters=3000, seed=77)
        a = lm.train_pegasos(ds, cfg)
        b = lm.train_pegasos(ds, cfg)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    def test_objective_within_2pct_of_batch_oracle(self, pegasos_oracle_case):
        ds, lam, oracle = pegasos_oracle_case
        model = lm.train_pegasos(ds, lm.SgdConfig(lambda_=lam, epochs_or_iters=100_000, seed=7))
        achieved = svm_objective(model, ds, lam)
        assert achieved <= oracle * 1.02

    def test_non_binary_labels_error(self):
        ds = DenseDataset(np.array([0.0, 2.0]), np.zeros((2, 2)))
        with pytest.raises(DataFormatError):
            lm.train_pegasos(ds, lm.SgdConfig(lambda_=1.0, epochs_or_iters=1))

    def test_class_weights_shift_decision(self):
        ds = generate_synthetic(200, 5, separation=0.5, seed=11)
        plain = lm.train_pegasos(ds, lm.SgdConfig(lambda_=0.01, epochs_or_iters=5000, seed=5))
        heavy = lm.train_pegasos(
            ds,
            lm.SgdConfig(lambda_=0.01, epochs_or_iters=5000, seed=5, class_weights=(1.0, 20.0)),
        )
        plain_pos = int(np.sum(lm.decision_scores(plain, ds) > 0))
        heavy_pos = int(np.sum(lm.decision_scores(heavy, ds) > 0))
        assert heavy_pos > plain_pos

    def test_projection_off_still_trains(self):
        ds = generate_synthetic(50, 4, separation=1.0, seed=2)
        cfg = lm.SgdConfig(lambda_=0.1, epochs_or_iters=200, seed=0, project=False)
        model = lm.train_pegasos(ds, cfg)
        assert np.isfinite(model.weights).all()

    @given(sgd_cases(), st.integers(1, 400), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_norm_oracle(self, case, steps, project):
        ds, cfg = case
        cfg = lm.SgdConfig(lambda_=cfg.lambda_, epochs_or_iters=steps, seed=cfg.seed,
                           class_weights=cfg.class_weights, project=project)
        model = lm.train_pegasos(ds, cfg)
        assert bits(model.weights, model.bias) == bits(*train_pegasos_oracle(ds, cfg))

    @pytest.mark.parametrize("project", [True, False])
    def test_pick_blocks_bit_identical_to_norm_oracle(self, project):
        # the row picks become Python ints a block at a time; cross two
        # block boundaries at the width the benchmarks train on
        steps = 2 * lm._PICK_BLOCK + 1
        ds = generate_synthetic(150, 200, separation=1.0, seed=31)
        cfg = lm.SgdConfig(lambda_=1e-3, epochs_or_iters=steps, seed=32,
                           class_weights=(1.0, 3.0), project=project)
        model = lm.train_pegasos(ds, cfg)
        assert bits(model.weights, model.bias) == bits(*train_pegasos_oracle(ds, cfg))

    @pytest.mark.parametrize("features", [33, 200, 257])
    def test_wide_bit_identical_to_norm_oracle(self, features):
        # BLAS splits longer dot products into blocks; cover the widths the
        # benchmarks and the CLI train on
        ds = generate_synthetic(120, features, separation=1.0, seed=features)
        cfg = lm.SgdConfig(lambda_=1e-3, epochs_or_iters=1500, seed=3)
        model = lm.train_pegasos(ds, cfg)
        assert bits(model.weights, model.bias) == bits(*train_pegasos_oracle(ds, cfg))


class TestLogistic:
    def test_majority_collapse(self):
        rng = np.random.default_rng(0)
        ds = DenseDataset(np.ones(30), rng.normal(size=(30, 4)))
        cfg = lm.SgdConfig(lambda_=1e-4, epochs_or_iters=200, learning_rate=0.5, seed=0)
        model = lm.train_logistic(ds, cfg)
        probs = lm.decision_scores(model, ds)
        assert np.all(probs > 0.5)

    def test_huge_lambda_crushes_weights(self):
        ds = generate_synthetic(100, 5, separation=2.0, seed=1)
        cfg = lm.SgdConfig(
            lambda_=1e6, epochs_or_iters=50, learning_rate=1e-7, seed=0
        )
        model = lm.train_logistic(ds, cfg)
        assert np.linalg.norm(model.weights) < 1e-3

    def test_separable_auc(self):
        ds = generate_synthetic(200, 10, separation=4.0, seed=13)
        cfg = lm.SgdConfig(lambda_=1e-4, epochs_or_iters=60, learning_rate=0.5, seed=3)
        model = lm.train_logistic(ds, cfg)
        scores = lm.decision_scores(model, ds)
        assert auc_roc(ds.labels.astype(int), scores) >= 0.95

    def test_bit_reproducible(self):
        ds = generate_synthetic(80, 6, separation=1.0, seed=21)
        cfg = lm.SgdConfig(lambda_=0.01, epochs_or_iters=20, learning_rate=0.2, seed=9)
        a = lm.train_logistic(ds, cfg)
        b = lm.train_logistic(ds, cfg)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(55)
        X = rng.normal(size=(5, 3))
        y = np.array([0, 1, 1, 0, 1], dtype=np.int64)
        w = rng.normal(size=3) * 0.5
        b = 0.3
        lam = 0.3
        c = np.array([1.3, 0.7, 1.3, 0.7, 1.0])
        grad_w, grad_b = lm._batch_gradient("logistic", X, y.astype(float), c, w, b, lam)
        eps = 1e-6

        def loss_at(wv, bv):
            """Weighted mean cross-entropy plus (lam/2)||w||^2; bias unregularized."""
            z = X @ wv + bv
            ce = np.maximum(z, 0.0) - y * z + np.log1p(np.exp(-np.abs(z)))  # softplus(z) - y*z
            return float(np.mean(c * ce) + 0.5 * lam * np.dot(wv, wv))

        for j in range(3):
            delta = np.zeros(3)
            delta[j] = eps
            fd = (loss_at(w + delta, b) - loss_at(w - delta, b)) / (2 * eps)
            assert abs(fd - grad_w[j]) / max(abs(fd), 1e-12) < 1e-6
        fd_b = (loss_at(w, b + eps) - loss_at(w, b - eps)) / (2 * eps)
        assert abs(fd_b - grad_b) / max(abs(fd_b), 1e-12) < 1e-6

    def test_class_weights_move_boundary(self):
        ds = generate_synthetic(200, 4, separation=0.5, seed=17)
        base_cfg = dict(lambda_=1e-3, epochs_or_iters=40, learning_rate=0.3, seed=2)
        plain = lm.train_logistic(ds, lm.SgdConfig(**base_cfg))
        heavy = lm.train_logistic(ds, lm.SgdConfig(class_weights=(1.0, 10.0), **base_cfg))
        plain_pos = int(np.sum(lm.decision_scores(plain, ds) > 0.5))
        heavy_pos = int(np.sum(lm.decision_scores(heavy, ds) > 0.5))
        assert heavy_pos > plain_pos


class TestDecisionScores:
    def test_zero_model(self):
        ds = DenseDataset(np.array([0.0, 1.0]), np.ones((2, 3)))
        svm = lm.LinearModel(np.zeros(3), 0.0, "svm")
        logistic = lm.LinearModel(np.zeros(3), 0.0, "logistic")
        assert np.array_equal(lm.decision_scores(svm, ds), [0.0, 0.0])
        assert np.array_equal(lm.decision_scores(logistic, ds), [0.5, 0.5])

    def test_unit_weight_reads_feature(self):
        ds = DenseDataset(np.array([1.0]), np.array([[3.0, 9.0]]))
        model = lm.LinearModel(np.array([1.0, 0.0]), 0.0, "svm")
        assert lm.decision_scores(model, ds)[0] == 3.0

    def test_width_mismatch(self):
        ds = DenseDataset(np.array([1.0]), np.ones((1, 4)))
        model = lm.LinearModel(np.zeros(3), 0.0, "svm")
        with pytest.raises(DataFormatError, match="expects 3 features, dataset has 4"):
            lm.decision_scores(model, ds)

    def test_logistic_scores_are_probabilities(self):
        rng = np.random.default_rng(8)
        ds = DenseDataset(np.zeros(50), rng.normal(size=(50, 6)))
        model = lm.LinearModel(rng.normal(size=6), 0.5, "logistic")
        scores = lm.decision_scores(model, ds)
        assert np.all((scores >= 0) & (scores <= 1))
        # moderate activations stay strictly inside (0, 1)
        assert scores.min() > 0.0 and scores.max() < 1.0

    def test_model_validation(self):
        with pytest.raises(ConfigError):
            lm.LinearModel(np.array([np.nan]), 0.0, "svm")
        with pytest.raises(ConfigError):
            lm.LinearModel(np.zeros(2), 0.0, "tree")


class TestTrainerAdapter:
    def test_predictor_learns_separable_data(self):
        pool = generate_synthetic(400, 8, 4.0, seed=4)
        train, test = pool.take(range(300)), pool.take(range(300, 400))
        cfg = lm.SgdConfig(lambda_=1e-4, epochs_or_iters=5, seed=1)
        predictor = lm.make_trainer("logistic", cfg)(train)
        preds = predictor.predict(test.features)
        assert preds.dtype.kind == "i"
        assert np.mean(preds == test.labels) > 0.85
        scores = predictor.score(test.features)
        assert np.all((scores >= 0) & (scores <= 1))
        assert auc_roc(test.labels, scores) > 0.9

    def test_svm_scores_are_margins(self):
        ds = generate_synthetic(200, 5, 4.0, seed=2)
        cfg = lm.SgdConfig(lambda_=0.01, epochs_or_iters=1000, seed=3)
        predictor = lm.make_trainer("svm", cfg)(ds)
        scores = predictor.score(ds.features)
        # margins are unbounded reals, not probabilities
        assert scores.min() < 0 < scores.max()

    def test_unknown_kind_rejected(self):
        cfg = lm.SgdConfig(lambda_=0.1, epochs_or_iters=1)
        with pytest.raises(ConfigError):
            lm.make_trainer("forest", cfg)

    def test_predictor_rejects_wrong_width(self):
        ds = generate_synthetic(50, 4, 2.0, seed=0)
        cfg = lm.SgdConfig(lambda_=0.1, epochs_or_iters=1, seed=0)
        predictor = lm.make_trainer("logistic", cfg)(ds)
        with pytest.raises(DataFormatError):
            predictor.predict(np.ones((2, 7)))
        with pytest.raises(DataFormatError):
            predictor.predict(np.ones(4))


class TestRowViewMatchesTake:
    """Training on a RowView gathers through its row numbers; the model must
    be the one trained on the copy base.take(rows), bit for bit."""

    @given(sgd_cases(), view_orders(), st.integers(0, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_logistic(self, case, order, extra, seed):
        ds, cfg = case
        view = embedded_view(ds, seed, order, extra)
        model = lm.train_logistic(view, cfg)
        ref = lm.train_logistic(view.base.take(view.rows), cfg)
        assert bits(model.weights, model.bias) == bits(ref.weights, ref.bias)

    @given(sgd_cases(), view_orders(), st.integers(0, 5), st.integers(0, 2**32 - 1),
           st.integers(1, 400), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_svm(self, case, order, extra, seed, steps, project):
        ds, cfg = case
        cfg = lm.SgdConfig(lambda_=cfg.lambda_, epochs_or_iters=steps, seed=cfg.seed,
                           class_weights=cfg.class_weights, project=project)
        view = embedded_view(ds, seed, order, extra)
        model = lm.train_pegasos(view, cfg)
        ref = lm.train_pegasos(view.base.take(view.rows), cfg)
        assert bits(model.weights, model.bias) == bits(ref.weights, ref.bias)

    @pytest.mark.parametrize("features", [33, 200, 257])
    @pytest.mark.parametrize("order", ["ascending", "unsorted"])
    @pytest.mark.parametrize("kind", lm.MODEL_KINDS)
    def test_wide(self, kind, order, features):
        # rows of the widths the benchmarks train on, read in place from the
        # base matrix rather than from a copy; Pegasos crosses a pick block
        ds = generate_synthetic(120, features, separation=1.0, seed=features)
        view = embedded_view(ds, features, order, extra=40)
        cfg = lm.SgdConfig(lambda_=1e-3, epochs_or_iters=3 if kind == "logistic" else 1500,
                           seed=3, class_weights=(1.0, 2.0))
        train = lm.train_logistic if kind == "logistic" else lm.train_pegasos
        model, ref = train(view, cfg), train(view.base.take(view.rows), cfg)
        assert bits(model.weights, model.bias) == bits(ref.weights, ref.bias)


class TestSgdEpochMatchesOracles:
    """train_logistic, local_epoch and local_train_rounds all run
    sgd_epoch; each must reproduce the loop it replaced bit for bit."""

    @given(sgd_cases())
    @settings(max_examples=120, deadline=None)
    def test_bit_identical(self, case):
        ds, cfg = case
        model = lm.train_logistic(ds, cfg)
        assert bits(model.weights, model.bias) == bits(*train_logistic_oracle(ds, cfg))

        # a random start, and one that puts every positive row's margin
        # exactly at the hinge
        starts = [(np.random.default_rng(cfg.seed).normal(size=ds.num_features), 0.25),
                  (np.zeros(ds.num_features), 1.0)]
        for algo in lm.MODEL_KINDS:
            for w0, b0 in starts:
                epoch = (algo, w0, b0, ds.features, ds.labels, cfg.lambda_,
                         cfg.learning_rate)
                got = local_epoch(*epoch, epoch_rng(cfg.seed, 1, 0))
                want = local_epoch_oracle(*epoch, epoch_rng(cfg.seed, 1, 0),
                                          LOCAL_EPOCH_BATCH)
                assert bits(*got) == bits(*want)

            rounds = cfg.epochs_or_iters
            w, b = np.zeros(ds.num_features), 0.0
            for round_ in range(rounds):
                w, b = local_epoch_oracle(algo, w, b, ds.features, ds.labels,
                                          cfg.lambda_, cfg.learning_rate,
                                          epoch_rng(cfg.seed, 2, round_))
            local = local_train_rounds(ds, algo, cfg, rounds, worker_id=2)
            assert bits(local.weights, local.bias) == bits(w, b)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            lm.sgd_epoch("gbt", np.zeros(2), 0.0, np.ones((3, 2)), np.ones(3),
                         0.1, 0.1, 2, np.random.default_rng(0))


SIGMOID_EDGES = [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 746.0, -746.0, 709.8, -709.8,
                 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
                 1e3, -1e3, 36.7, -36.7, 1e308, -1e308]


def sigmoid_inputs():
    """float64 arrays of 1 or 2 dims: the edge values above, subnormals,
    |z| up to 1e3, any finite float, and NaN."""
    elements = st.one_of(st.sampled_from(SIGMOID_EDGES),
                         st.floats(-1e3, 1e3, allow_subnormal=True),
                         st.floats(-1e-300, 1e-300, allow_subnormal=True),
                         st.floats(allow_nan=True, allow_infinity=True))
    shapes = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=12)
    return hnp.arrays(np.float64, shapes, elements=elements)


class TestSigmoid:
    """The two-formula sigmoid must give the frozen mask-and-scatter
    version's bytes on every non-NaN input, and NaN on NaN."""

    @staticmethod
    def _check(z):
        got, want = lm.sigmoid(z), sigmoid_oracle(z)
        assert got.dtype == np.float64 and got.shape == z.shape
        nan = np.isnan(z)
        assert np.isnan(got[nan]).all()
        assert got[~nan].tobytes() == want[~nan].tobytes()

    @given(sigmoid_inputs())
    @settings(max_examples=300, deadline=None)
    def test_float_arrays(self, z):
        self._check(z)

    @given(st.sampled_from([np.int32, np.int64]).flatmap(
        lambda dt: hnp.arrays(dt, hnp.array_shapes(min_dims=1, max_dims=2, max_side=10))))
    @settings(max_examples=150, deadline=None)
    def test_integer_arrays(self, z):
        self._check(z)

    def test_edges(self):
        z = np.array(SIGMOID_EDGES + [np.nan])
        self._check(z)
        self._check(z.reshape(3, 7))
        assert lm.sigmoid(np.array([0.0, -0.0]))[0] == 0.5
        assert lm.sigmoid(np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("dtype, result", [
        (np.float64, np.float64), (np.int32, np.float64), (np.int64, np.float64),
        (np.float32, np.float32), (np.int16, np.float32),
        (np.float16, np.float16), (np.int8, np.float16)])
    def test_result_dtype_is_that_of_exp(self, dtype, result):
        z = np.array([[-40, -3, 0], [1, 5, 40]], dtype=dtype)
        got = lm.sigmoid(z)
        assert got.dtype == result
        np.testing.assert_allclose(got, sigmoid_oracle(z.astype(np.float64)),
                                   rtol=np.finfo(result).eps * 4, atol=1e-7)
