import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskbench import mlp
from deskbench.dataio import DenseDataset, generate_synthetic
from deskbench.errors import ConfigError, DataFormatError
from oracles import mlp_eval_forward_oracle, mlp_train_oracle


def tiny_arch(**overrides):
    base = dict(input_size=6, hidden_size=3, num_hidden_blocks=1,
                output_size=2, dropout_p=0.0)
    base.update(overrides)
    return mlp.MlpArchitecture(**base)


def zero_model(arch, bn_eps=1e-5):
    model = mlp.init_model(arch, np.random.default_rng(0), bn_eps=bn_eps)
    for block in model.blocks:
        block["w"][:] = 0.0
    model.out_w[:] = 0.0
    return model


class TestConfigs:
    def test_arch_defaults_match_reference(self):
        arch = mlp.MlpArchitecture()
        assert (arch.input_size, arch.hidden_size, arch.num_hidden_blocks,
                arch.output_size, arch.dropout_p) == (2000, 128, 2, 2, 0.8)

    def test_train_defaults(self):
        cfg = mlp.MlpTrainConfig()
        assert (cfg.learning_rate, cfg.weight_decay, cfg.epochs, cfg.batch_size) == (
            1e-5, 1e-4, 100, 128)
        assert (cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps) == (0.9, 0.999, 1e-8)
        assert (cfg.bn_momentum, cfg.bn_eps) == (0.1, 1e-5)

    @pytest.mark.parametrize("kwargs", [
        {"input_size": 0}, {"dropout_p": 1.0}, {"dropout_p": -0.1},
    ])
    def test_arch_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            tiny_arch(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"epochs": 0}, {"batch_size": 1}, {"adam_beta1": 1.0},
        {"adam_eps": 0.0}, {"learning_rate": 0.0}, {"bn_momentum": 0.0},
        {"class_weights": (0.0, 1.0)},
    ])
    def test_train_config_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            mlp.MlpTrainConfig(**kwargs)


class TestForward:
    def test_zero_network_gives_zero_logits(self):
        model = zero_model(tiny_arch())
        logits = mlp.forward(model, np.random.default_rng(1).normal(size=(4, 6)))
        assert np.array_equal(logits, np.zeros((4, 2)))

    @pytest.mark.parametrize("batch_rows", [1, 2, 7])
    def test_eval_shape(self, batch_rows):
        model = mlp.init_model(tiny_arch(), np.random.default_rng(2))
        logits = mlp.forward(model, np.zeros((batch_rows, 6)))
        assert logits.shape == (batch_rows, 2)

    def test_train_bn_normalizes_batch(self):
        # tiny bn_eps so normalized variance sits within 1e-6 of 1
        model = mlp.init_model(tiny_arch(hidden_size=5), np.random.default_rng(3),
                               bn_eps=1e-9)
        X = np.random.default_rng(4).normal(size=(64, 6)) * 3.0
        _, _, caches = mlp._train_forward(model, X, None)
        _, _, x_hat, _, _ = caches[0]
        assert np.max(np.abs(x_hat.mean(axis=0))) < 1e-6
        assert np.max(np.abs(x_hat.var(axis=0) - 1.0)) < 1e-6

    def test_running_stats_ema(self):
        model = mlp.init_model(tiny_arch(hidden_size=2), np.random.default_rng(5))
        X = np.random.default_rng(6).normal(size=(8, 6))
        z = X @ model.blocks[0]["w"] + model.blocks[0]["b"]
        mu, var_biased = z.mean(axis=0), z.var(axis=0)
        mlp.loss_and_gradients(model, X, np.zeros(8, dtype=np.int64))
        expect_mean = 0.9 * 0.0 + 0.1 * mu
        expect_var = 0.9 * 1.0 + 0.1 * var_biased * 8 / 7  # unbiased into the EMA
        assert np.allclose(model.blocks[0]["run_mean"], expect_mean, atol=1e-12)
        assert np.allclose(model.blocks[0]["run_var"], expect_var, atol=1e-12)

    def test_eval_forward_is_pure(self):
        model = mlp.init_model(tiny_arch(num_hidden_blocks=2), np.random.default_rng(7))
        X = np.random.default_rng(8).normal(size=(5, 6))
        before = [(block["run_mean"].copy(), block["run_var"].copy())
                  for block in model.blocks]
        a = mlp.forward(model, X)
        b = mlp.forward(model, X)
        assert np.array_equal(a, b)
        for block, (run_mean, run_var) in zip(model.blocks, before):
            assert np.array_equal(block["run_mean"], run_mean)
            assert np.array_equal(block["run_var"], run_var)

    def test_train_batch_of_one_rejected(self):
        model = mlp.init_model(tiny_arch(), np.random.default_rng(9))
        with pytest.raises(DataFormatError):
            mlp.loss_and_gradients(model, np.zeros((1, 6)), np.array([0]))

    def test_width_mismatch(self):
        model = mlp.init_model(tiny_arch(), np.random.default_rng(10))
        with pytest.raises(DataFormatError):
            mlp.forward(model, np.zeros((2, 5)))

    def test_dropout_needs_rng(self):
        model = mlp.init_model(tiny_arch(dropout_p=0.5), np.random.default_rng(11))
        with pytest.raises(ConfigError):
            mlp.loss_and_gradients(model, np.zeros((4, 6)), np.array([0, 1, 0, 1]))

    def test_dropout_expectation_matches_no_dropout(self):
        # one block: BN (batch statistics) comes before dropout, so the mean
        # over masks of the training logits is exactly the no-dropout logits
        model = mlp.init_model(tiny_arch(hidden_size=8, dropout_p=0.5),
                               np.random.default_rng(3))
        model.out_b[:] = [1.0, -1.5]
        X = np.random.default_rng(12).normal(size=(3, 6))
        no_dropout = dataclasses.replace(model, arch=tiny_arch(hidden_size=8))
        target, _, _ = mlp._train_forward(no_dropout, X, None)
        assert np.min(np.abs(target)) > 0.2  # keeps the relative bound meaningful
        rng = np.random.default_rng(99)
        total = np.zeros_like(target)
        for _ in range(10_000):
            total += mlp._train_forward(model, X, rng)[0]
        mean = total / 10_000
        assert np.all(np.abs(mean - target) <= 0.02 * np.abs(target))


class TestSoftmax:
    @given(st.integers(0, 2**31 - 1), st.integers(1, 12), st.integers(2, 6))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(rows, cols)) * rng.uniform(1, 200)
        probs = mlp.softmax(logits)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-12)
        assert np.all(probs >= 0)


class TestLossAndGradients:
    def test_uniform_logits_ln2(self):
        model = zero_model(tiny_arch())
        X = np.random.default_rng(13).normal(size=(6, 6))
        labels = np.array([0, 1, 0, 1, 1, 0])
        loss, _ = mlp.loss_and_gradients(model, X, labels)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_class_weight_multiplier_rule(self):
        # one distinct label-0 example, duplicated to satisfy the BN batch
        # contract; weights (2,1) must scale the loss by exactly 2
        model = mlp.init_model(tiny_arch(), np.random.default_rng(14))
        row = np.random.default_rng(15).normal(size=6)
        X = np.vstack([row, row])
        labels = np.array([0, 0])
        plain, _ = mlp.loss_and_gradients(model, X, labels)
        weighted, _ = mlp.loss_and_gradients(model, X, labels, class_weights=(2.0, 1.0))
        assert weighted == pytest.approx(2.0 * plain, rel=1e-15)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(16)
        model = mlp.init_model(tiny_arch(), rng)
        X = rng.normal(size=(4, 6))
        labels = np.array([0, 1, 1, 0])
        weights = (1.3, 0.7)
        _, grads = mlp.loss_and_gradients(model, X, labels, class_weights=weights)

        def loss_only():
            return mlp.loss_and_gradients(model, X, labels, class_weights=weights)[0]

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
                # 1e-6 floor: BN zeroes the pre-BN bias gradient exactly, so
                # those coordinates are pure finite-difference noise
                rel = abs(fd - gflat[j]) / max(abs(fd), abs(gflat[j]), 1e-6)
                worst = max(worst, rel)
        assert worst < 1e-4

    def test_batch_untouched_and_gradients_fresh(self):
        # the step works in place on its own buffers only: the caller's batch
        # keeps its bytes, and a later step leaves earlier gradients alone
        arch = tiny_arch(num_hidden_blocks=2, dropout_p=0.5)
        model = mlp.init_model(arch, np.random.default_rng(21))
        rng = np.random.default_rng(22)
        X = rng.normal(size=(8, 6))
        before = X.tobytes()
        labels = np.array([0, 1, 1, 0, 1, 0, 0, 1])
        _, first = mlp.loss_and_gradients(model, X, labels, rng=rng)
        kept = [g.tobytes() for g in mlp._flatten(**first)]
        _, second = mlp.loss_and_gradients(model, X, labels, rng=rng)
        assert X.tobytes() == before
        assert [g.tobytes() for g in mlp._flatten(**first)] == kept
        assert [g.tobytes() for g in mlp._flatten(**second)] != kept

    def test_gradient_shapes_mirror_parameters(self):
        model = mlp.init_model(tiny_arch(num_hidden_blocks=2), np.random.default_rng(17))
        _, grads = mlp.loss_and_gradients(
            model, np.random.default_rng(18).normal(size=(5, 6)), np.array([0, 1, 0, 1, 1])
        )
        assert len(grads["blocks"]) == 2
        for block, g in zip(model.blocks, grads["blocks"]):
            for name in ("w", "b", "gamma", "beta"):
                assert g[name].shape == block[name].shape
        assert grads["out_w"].shape == model.out_w.shape


class TestTrain:
    def small_ds(self, n=300, f=6, seed=20):
        return generate_synthetic(n, f, separation=3.0, seed=seed)

    def cfg(self, **overrides):
        base = dict(learning_rate=1e-2, weight_decay=1e-4, epochs=4,
                    batch_size=32, seed=5)
        base.update(overrides)
        return mlp.MlpTrainConfig(**base)

    def test_curve_length_and_determinism(self):
        ds = self.small_ds()
        arch = tiny_arch(dropout_p=0.2)
        _, curve_a = mlp.train(ds, arch, self.cfg())
        _, curve_b = mlp.train(ds, arch, self.cfg())
        assert len(curve_a) == 4
        assert curve_a == curve_b

    def test_different_seeds_differ(self):
        ds = self.small_ds()
        arch = tiny_arch()
        _, a = mlp.train(ds, arch, self.cfg(seed=1))
        _, b = mlp.train(ds, arch, self.cfg(seed=2))
        assert a != b

    def test_batch_size_exceeds_train_rows(self):
        ds = self.small_ds(n=40)
        with pytest.raises(ConfigError):
            mlp.train(ds, tiny_arch(), self.cfg(batch_size=64))

    def test_learns_easy_data(self):
        ds = self.small_ds(n=400)
        model, curve = mlp.train(ds, tiny_arch(hidden_size=8), self.cfg(epochs=30))
        predictor = mlp.MlpPredictor(model)
        acc = float(np.mean(predictor.predict(ds.features) == ds.labels))
        assert acc > 0.9
        assert curve[-1][0] < curve[0][0]

    def test_descent_on_wide_synthetic(self):
        # 2000-feature easy instance; loss after 15 epochs must beat epoch 1
        ds = generate_synthetic(5000, 2000, separation=4.0, seed=31)
        cfg = mlp.MlpTrainConfig(learning_rate=1e-3, epochs=15, batch_size=128, seed=7)
        model, curve = mlp.train(ds, mlp.MlpArchitecture(), cfg)
        assert len(curve) == 15
        assert curve[-1][0] < curve[0][0]

    def test_predictor_interface(self):
        ds = self.small_ds(n=200)
        trainer = mlp.make_trainer(tiny_arch(hidden_size=4), self.cfg(epochs=3))
        predictor = trainer(ds)
        preds = predictor.predict(ds.features)
        scores = predictor.score(ds.features)
        assert set(np.unique(preds)) <= {0, 1}
        assert np.all((scores >= 0) & (scores <= 1))

    def test_wrong_width_dataset(self):
        ds = self.small_ds(f=5)
        with pytest.raises(DataFormatError):
            mlp.train(ds, tiny_arch(input_size=6), self.cfg())

    def test_save_learning_curve(self, tmp_path):
        path = tmp_path / "curve.csv"
        mlp.save_learning_curve(path, [(0.5, 0.6), (0.4, 0.55)])
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert lines[1] == "1,0.5,0.6"
        assert lines[2] == "2,0.4,0.55"


@st.composite
def mlp_cases(draw):
    """(dataset, arch, config): tiny nets of 1-3 blocks, dropout 0 to 0.8,
    class weights absent or unequal, weight decay 0 or > 0, and training
    splits that often leave a trailing one-row batch."""
    batch = draw(st.integers(2, 6))
    train_rows = batch * draw(st.integers(1, 3)) + draw(st.sampled_from([0, 1, batch - 1]))
    # train holds out max(1, n // 10) of n rows for the learning curve
    n = next(n for n in itertools.count(train_rows + 1) if n - max(1, n // 10) == train_rows)
    f = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ds = DenseDataset(rng.integers(0, 2, size=n).astype(np.float64),
                      rng.normal(size=(n, f)) * 10.0 ** draw(st.floats(-2.0, 2.0)))
    arch = mlp.MlpArchitecture(input_size=f, hidden_size=draw(st.integers(1, 4)),
                               num_hidden_blocks=draw(st.integers(1, 3)), output_size=2,
                               dropout_p=draw(st.sampled_from([0.0, 0.1, 0.5, 0.8])))
    cfg = mlp.MlpTrainConfig(learning_rate=draw(st.sampled_from([1e-3, 1e-2, 0.1])),
                             weight_decay=draw(st.sampled_from([0.0, 1e-4, 0.05])),
                             epochs=draw(st.integers(1, 3)), batch_size=batch,
                             seed=draw(st.integers(0, 1000)),
                             class_weights=draw(st.sampled_from([None, (1.0, 2.5), (3.0, 0.5)])))
    return ds, arch, cfg


def model_bits(model):
    arrays = [model.out_w, model.out_b] + [block[name] for block in model.blocks
                                           for name in sorted(block)]
    return [array.tobytes() for array in arrays]


class TestTrainMatchesOracle:
    """train and forward against the mode-flag trainer they replaced:
    weights, running statistics, curve and eval logits, bit for bit."""

    @given(mlp_cases())
    @settings(max_examples=40, deadline=None)
    def test_bit_identical(self, case):
        self.check(*case)

    def test_dense_benchmark_shape(self):
        # the dense_cv network, wide enough for BLAS to block its products;
        # 2 full batches and a trailing one-row batch of 257 training rows
        ds = generate_synthetic(285, 200, separation=1.0, seed=23)
        arch = mlp.MlpArchitecture(input_size=200, hidden_size=64, num_hidden_blocks=2,
                                   output_size=2, dropout_p=0.1)
        cfg = mlp.MlpTrainConfig(learning_rate=3e-3, epochs=1, batch_size=128, seed=24)
        self.check(ds, arch, cfg)

    def check(self, ds, arch, cfg):
        model, curve = mlp.train(ds, arch, cfg)
        ref, ref_curve = mlp_train_oracle(ds, arch, cfg)
        assert repr(curve) == repr(ref_curve)
        assert model_bits(model) == model_bits(ref)
        for rows in (ds.features[:1], ds.features):
            assert (mlp.forward(model, rows).tobytes()
                    == mlp_eval_forward_oracle(model, rows).tobytes())
