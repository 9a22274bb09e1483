from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deskbench import gbt
from deskbench.errors import ConfigError, DataFormatError

from oracles import brute_force_best_split, exact_greedy_split_oracle, gbt_fit_oracle


def walk_leaves(node, depth=0):
    """Yield (leaf node, depth) pairs."""
    if "w" in node:
        yield node, depth
    else:
        yield from walk_leaves(node["l"], depth + 1)
        yield from walk_leaves(node["r"], depth + 1)


def loose(**overrides):
    base = dict(max_depth=3, eta=0.3, num_round=10, min_child_weight=0.0,
                lambda_=0.0, gamma=0.0)
    base.update(overrides)
    return gbt.GbtConfig(**base)


class TestConfig:
    def test_defaults(self):
        cfg = gbt.GbtConfig()
        assert (cfg.max_depth, cfg.eta, cfg.num_round) == (10, 0.05, 300)
        assert (cfg.min_child_weight, cfg.lambda_, cfg.gamma) == (5.0, 1.5, 0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_depth": 0},
            {"eta": 0.0},
            {"eta": 1.5},
            {"num_round": 0},
            {"min_child_weight": -1.0},
            {"lambda_": -0.1},
            {"gamma": -0.1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            gbt.GbtConfig(**kwargs)


class TestFit:
    def test_constant_targets_zero_trees(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        y = np.full(20, 4.25)
        model = gbt.fit(X, y, loose(num_round=5))
        assert model.base_score == 4.25
        assert len(model.trees) == 5
        for tree in model.trees:
            assert set(tree) == {"w"}
            assert tree["w"] == 0.0

    def test_hand_solvable_stump(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        cfg = gbt.GbtConfig(max_depth=1, eta=1.0, num_round=1,
                            min_child_weight=0.0, lambda_=0.0, gamma=0.0)
        model = gbt.fit(X, y, cfg)
        tree = model.trees[0]
        assert tree["f"] == 0 and tree["t"] == 0.5
        assert tree["l"]["w"] == -0.5 and tree["r"]["w"] == 0.5
        preds = gbt.predict(model, X)
        assert np.array_equal(preds, y)

    def test_first_root_split_matches_brute_force(self):
        rng = np.random.default_rng(99)
        X = rng.normal(size=(200, 3))
        y = X[:, 0] * 2.0 + np.sin(X[:, 1]) + rng.normal(size=200) * 0.3
        cfg = loose(max_depth=2, num_round=1, lambda_=1.5, gamma=0.1,
                    min_child_weight=5.0)
        model = gbt.fit(X, y, cfg)
        g = np.full(200, y.mean()) - y
        oracle = brute_force_best_split(X, g, lambda_=1.5, gamma=0.1,
                                        min_child_weight=5.0)
        root = model.trees[0]
        assert root["f"] == oracle[1]
        assert root["t"] == pytest.approx(oracle[2], abs=0.0)

    def test_rmse_non_increasing_across_rounds(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(500, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 0.0]) + rng.normal(size=500) * 0.5
        cfg = gbt.GbtConfig(max_depth=3, eta=0.3, num_round=40,
                            min_child_weight=1.0, lambda_=1.0, gamma=0.0)
        model = gbt.fit(X, y, cfg)
        preds = np.full(500, model.base_score)
        rows = np.arange(500)
        last = float(np.sqrt(np.mean((preds - y) ** 2)))
        for tree in model.trees:
            out = np.zeros(500)
            gbt._apply_tree(tree, X, rows, out)
            preds += out
            rmse = float(np.sqrt(np.mean((preds - y) ** 2)))
            assert rmse <= last + 1e-12
            last = rmse

    def test_split_invariants_walk(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 5))
        y = X[:, 0] + 0.5 * X[:, 1] ** 2 + rng.normal(size=300) * 0.2
        cfg = gbt.GbtConfig(max_depth=4, eta=0.2, num_round=15,
                            min_child_weight=7.0, lambda_=1.5, gamma=0.05)
        model = gbt.fit(X, y, cfg)

        def check(node, rows):
            if "w" in node:
                return
            mask = X[rows, node["f"]] <= node["t"]
            left, right = rows[mask], rows[~mask]
            assert left.size >= cfg.min_child_weight
            assert right.size >= cfg.min_child_weight
            check(node["l"], left)
            check(node["r"], right)

        rows = np.arange(300)
        for tree in model.trees:
            check(tree, rows)
            for _, depth in walk_leaves(tree):
                assert depth <= cfg.max_depth

    def test_huge_gamma_degenerates_to_base(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(100, 3))
        y = rng.normal(size=100)
        model = gbt.fit(X, y, loose(gamma=1e9, num_round=10))
        preds = gbt.predict(model, X)
        assert np.allclose(preds, model.base_score, atol=1e-9)

    def test_tiny_eta_stays_near_base(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(100, 3))
        y = rng.normal(size=100) * 10
        model = gbt.fit(X, y, loose(eta=1e-9, num_round=10))
        preds = gbt.predict(model, X)
        assert np.max(np.abs(preds - model.base_score)) < 1e-6

    def test_depth_one_beats_nothing_on_step_function(self):
        X = np.linspace(0, 1, 50).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float) * 3.0
        model = gbt.fit(X, y, loose(max_depth=1, num_round=30))
        rmse = float(np.sqrt(np.mean((gbt.predict(model, X) - y) ** 2)))
        assert rmse < 0.1

    def test_rejects_bad_inputs(self):
        cfg = loose()
        with pytest.raises(DataFormatError):
            gbt.fit(np.ones((1, 2)), np.ones(1), cfg)
        with pytest.raises(DataFormatError):
            gbt.fit(np.array([[np.nan, 1.0], [0.0, 1.0]]), np.ones(2), cfg)
        with pytest.raises(DataFormatError):
            gbt.fit(np.ones((3, 2)), np.array([1.0, np.nan, 2.0]), cfg)
        with pytest.raises(DataFormatError):
            gbt.fit(np.ones((3, 2)), np.ones(4), cfg)


class TestPredict:
    def test_empty_trees_gives_base(self):
        model = gbt.GbtModel(base_score=2.5, trees=[], num_features=3)
        preds = gbt.predict(model, np.zeros((4, 3)))
        assert np.array_equal(preds, np.full(4, 2.5))

    def test_threshold_tie_goes_left(self):
        tree = {"f": 0, "t": 1.0, "l": {"w": -1.0}, "r": {"w": 1.0}}
        model = gbt.GbtModel(base_score=0.0, trees=[tree], num_features=1)
        preds = gbt.predict(model, np.array([[1.0], [1.0000001], [0.5]]))
        assert np.array_equal(preds, [-1.0, 1.0, -1.0])

    def test_training_predictions_bit_identical_to_fit(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(150, 4))
        y = X[:, 0] - X[:, 2] + rng.normal(size=150) * 0.1
        cfg = loose(num_round=25, min_child_weight=3.0, lambda_=1.0)
        model = gbt.fit(X, y, cfg)
        # replay fit-time prediction updates
        preds = np.full(150, model.base_score)
        rows = np.arange(150)
        for tree in model.trees:
            out = np.zeros(150)
            gbt._apply_tree(tree, X, rows, out)
            preds += out
        assert np.array_equal(gbt.predict(model, X), preds)

    def test_width_mismatch(self):
        model = gbt.GbtModel(base_score=0.0, trees=[], num_features=2)
        with pytest.raises(DataFormatError):
            gbt.predict(model, np.zeros((3, 3)))

    def test_nan_rejected(self):
        model = gbt.GbtModel(base_score=0.0, trees=[], num_features=1)
        with pytest.raises(DataFormatError):
            gbt.predict(model, np.array([[np.nan]]))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_fit_deterministic(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        cfg = loose(num_round=3)
        a = gbt.fit(X, y, cfg)
        b = gbt.fit(X, y, cfg)
        assert a.trees == b.trees and a.base_score == b.base_score


class TestTrainerAdapter:
    def test_predictor_matches_module_predict(self):
        from deskbench.dataio import DenseDataset

        rng = np.random.default_rng(6)
        X = rng.normal(size=(80, 3))
        y = X[:, 0] * 2.0 + rng.normal(size=80) * 0.1
        cfg = loose(num_round=5)
        ds = DenseDataset(y, X)
        predictor = gbt.make_trainer(cfg)(ds)
        direct = gbt.predict(gbt.fit(X, y, cfg), X)
        assert np.array_equal(predictor.predict(X), direct)


# Small alphabets make repeated values and equal gains common; -0.0 and 0.0
# compare equal, so they must never form a split boundary.
VALUES = (-0.0, 0.0, 1.0, -1.0, 0.5, 2.0, 3.0)
GRADIENTS = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)


def best_split(X, g, rows, cfg):
    """gbt's split search at one node, on the ranks of the whole matrix."""
    cand, ranks = gbt._rank_columns(X)
    return gbt._best_split(X, cand, ranks, g, rows, cfg)


def assert_same_split(new, old):
    if old is None:
        assert new is None
        return
    # repr tells -0.0 from 0.0 and numpy scalars from Python numbers
    assert repr(new[:3]) == repr(old[:3])
    for got, want in zip(new[3:], old[3:]):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def assert_same_model(new, old):
    assert new.trees == old.trees and new.base_score == old.base_score
    assert repr(new.trees) == repr(old.trees)


@st.composite
def node_cases(draw):
    """(X, g, rows, cfg, column block size) for one node.

    Hypothesis picks the shape and the edge cases; a seeded generator fills
    the arrays, which keeps each example cheap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, f = draw(st.integers(2, 24)), draw(st.integers(1, 8))
    X = rng.choice(draw(st.sampled_from([VALUES[:2], VALUES[:3], VALUES])), size=(n, f))
    if draw(st.booleans()):
        spread = rng.random((n, f)) < 0.5
        X[spread] = rng.normal(size=int(spread.sum())) * 10.0
    for _ in range(draw(st.integers(0, 3))):
        X[:, rng.integers(f)] = X[:, rng.integers(f)]  # equal gains across features
    g = rng.choice(GRADIENTS, size=n) if draw(st.booleans()) else rng.normal(size=n)
    rows = rng.permutation(n)[: draw(st.integers(1, n))]
    if draw(st.booleans()):  # constant on the node, not on the whole matrix
        X[rows, rng.integers(f)] = rng.choice(VALUES)
    cfg = gbt.GbtConfig(
        max_depth=3, eta=0.3, num_round=1,
        min_child_weight=float(draw(st.integers(0, rows.size))),
        lambda_=draw(st.sampled_from([0.0, 1.0, 1.5])),
        gamma=draw(st.sampled_from([0.0, 0.1, 1e9])),
    )
    return X, g, rows, cfg, draw(st.sampled_from([1, 2, 3, gbt._COLUMN_BLOCK]))


class TestSplitSearchMatchesOracle:
    """The rank split search against the per-feature loop on float values."""

    @given(node_cases())
    @example((  # mirrored gradients: equal gains at two boundaries of one column
        np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([1.0, -1.0, -1.0, 1.0]),
        np.arange(4), loose(), gbt._COLUMN_BLOCK,
    ))
    @example((  # adjacent floats: the midpoint rounds up to the right value
        np.array([[1.0 + 2**-52], [1.0 + 2**-51]]), np.array([1.0, -1.0]),
        np.arange(2), loose(), gbt._COLUMN_BLOCK,
    ))
    @settings(max_examples=400, deadline=None)
    def test_best_split_identical(self, case):
        X, g, rows, cfg, block = case
        with mock.patch.object(gbt, "_COLUMN_BLOCK", block):
            new = best_split(X, g, rows, cfg)
        assert_same_split(new, exact_greedy_split_oracle(X, g, rows, cfg))

    @given(node_cases(), st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_fit_trees_identical(self, case, depth, rounds):
        X, y, _, cfg, block = case
        cfg = gbt.GbtConfig(max_depth=depth, eta=0.3, num_round=rounds,
                            min_child_weight=cfg.min_child_weight,
                            lambda_=cfg.lambda_, gamma=cfg.gamma)
        with mock.patch.object(gbt, "_COLUMN_BLOCK", block):
            new = gbt.fit(X, y, cfg)
        assert_same_model(new, gbt_fit_oracle(X, y, cfg))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_wide_sparse_features_csv_shape(self, seed):
        # hashed text over a small vocabulary: mostly zeros, few live columns,
        # then the two numeric columns (gross, normalized year)
        rng = np.random.default_rng(seed)
        n, dim = 60, 128
        X = np.zeros((n, dim + 2))
        for i in range(n):
            slots = rng.choice(25, size=rng.integers(1, 6), replace=False) * 5
            X[i, slots] = rng.choice([0.4054651081081644, 0.8109302162163288, 1.0986122886681098],
                                     size=slots.size)
        X[:, dim] = rng.integers(1, 300, size=n) * 100000.0
        X[:, dim + 1] = rng.integers(0, 63, size=n) / 62.0
        y = rng.normal(size=n) + X[:, 0]
        cfg = gbt.GbtConfig(max_depth=3, eta=0.3, num_round=3, min_child_weight=2.0)
        assert_same_model(gbt.fit(X, y, cfg), gbt_fit_oracle(X, y, cfg))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=5, deadline=None)
    def test_dense_node_wider_than_one_block(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 6, size=(40, 2 * gbt._COLUMN_BLOCK + 5)).astype(np.float64)
        X[:, 7] = X[:, 3]  # equal gains across features
        g = rng.normal(size=40)
        rows = rng.permutation(40)[:30]
        cfg = gbt.GbtConfig(max_depth=2, eta=0.3, num_round=2, min_child_weight=1.0,
                            lambda_=0.0, gamma=0.0)
        assert_same_split(best_split(X, g, rows, cfg),
                          exact_greedy_split_oracle(X, g, rows, cfg))
        assert_same_model(gbt.fit(X, g, cfg), gbt_fit_oracle(X, g, cfg))

    @pytest.mark.parametrize("n, dtype", [(256, np.uint8), (257, np.uint16)])
    def test_rank_dtype_edges(self, n, dtype):
        # all-distinct column 0 needs rank n - 1; column 1 repeats values,
        # column 2 is constant and column 3 mixes -0.0 with 0.0
        rng = np.random.default_rng(n)
        X = np.column_stack([rng.normal(size=n), np.round(rng.normal(size=n), 1),
                             np.full(n, 2.0), rng.choice([-0.0, 0.0, 1.0], size=n)])
        y = X[:, 0] + X[:, 3] + rng.normal(size=n) * 0.1
        cand, ranks = gbt._rank_columns(X)
        assert cand.tolist() == [0, 1, 3] and ranks.dtype == dtype
        for j, f in enumerate(cand):
            assert np.array_equal(ranks[:, j], np.unique(X[:, f], return_inverse=True)[1])
        cfg = gbt.GbtConfig(max_depth=3, eta=0.3, num_round=2, min_child_weight=1.0)
        assert_same_model(gbt.fit(X, y, cfg), gbt_fit_oracle(X, y, cfg))

    def test_uint32_ranks_single_column(self):
        # 65,537 distinct values need rank 65,536; numpy sorts uint32 with timsort
        rng = np.random.default_rng(65_537)
        X = rng.normal(size=(65_537, 1))
        y = np.sin(3.0 * X[:, 0]) + rng.normal(size=65_537) * 0.1
        ranks = gbt._rank_columns(X)[1]
        assert ranks.dtype == np.uint32 and int(ranks.max()) == 65_536
        cfg = gbt.GbtConfig(max_depth=2, eta=0.3, num_round=1, min_child_weight=1.0)
        assert_same_model(gbt.fit(X, y, cfg), gbt_fit_oracle(X, y, cfg))
