from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deskbench import evaluation, gbt
from deskbench.dataio import DenseDataset, RowView
from deskbench.errors import ConfigError, DataFormatError

from helpers import embedded_view, view_orders
from oracles import (apply_tree_oracle, brute_force_best_split, exact_greedy_split_oracle,
                     gbt_fit_oracle, gbt_predict_oracle)


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
            apply_tree_oracle(tree, X, rows, out)
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
            apply_tree_oracle(tree, X, rows, out)
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


class TestPredictMatchesOracle:
    """predict's array walk against the recursive walk, bit for bit."""

    STUMP = {"f": 1, "t": 0.5, "l": {"w": -0.25}, "r": {"w": 0.75}}
    DEEP = {"f": 0, "t": 0.0,
            "l": {"w": 1.0},
            "r": {"f": 1, "t": 1.0,
                  "l": {"f": 0, "t": 2.0, "l": {"w": -0.0}, "r": {"w": 3.5}},
                  "r": {"f": 2, "t": -1.0, "l": {"w": 0.125},
                        "r": {"f": 1, "t": 1.0, "l": {"w": 7.0}, "r": {"w": -7.0}}}}}

    def assert_same(self, model, X):
        got, want = gbt.predict(model, X), gbt_predict_oracle(model, X)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_empty_model_and_no_rows(self):
        for trees in ([], [self.STUMP]):
            model = gbt.GbtModel(base_score=-1.5, trees=trees, num_features=3)
            self.assert_same(model, np.zeros((4, 3)))
            self.assert_same(model, np.zeros((0, 3)))

    def test_leaves_stumps_and_deep_trees_together(self):
        # trees of depth 0, 1 and 4 walk the same number of levels
        rng = np.random.default_rng(1)
        X = rng.choice([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0], size=(50, 3))
        trees = [{"w": 0.1}, self.STUMP, self.DEEP, {"w": -0.0}, self.DEEP]
        self.assert_same(gbt.GbtModel(0.3, trees, 3), X)

    def test_ties_go_left(self):
        # each row sits exactly on a threshold of the deep tree
        X = np.array([[0.0, 1.0, -1.0], [-0.0, 1.0, 5.0], [1.0, 1.0, -1.0], [2.0, 1.0, 0.0],
                      [2.0, 0.5, 0.0], [1.0, 2.0, -1.0]])
        model = gbt.GbtModel(0.0, [self.DEEP], 3)
        assert gbt.predict(model, X).tolist() == [1.0, 1.0, -0.0, -0.0, -0.0, 0.125]
        self.assert_same(model, X)

    @pytest.mark.parametrize("cells", [1, 2, 7, 30])
    def test_across_row_chunks(self, cells):
        # 3 trees in chunks of max(1, cells // 3) rows: 1, 1, 2 and 10
        rng = np.random.default_rng(cells)
        X = rng.normal(size=(41, 3))
        y = X[:, 0] - X[:, 1] + rng.normal(size=41) * 0.1
        model = gbt.fit(X, y, loose(max_depth=4, num_round=3))
        with mock.patch.object(gbt, "_PREDICT_CELLS", cells):
            self.assert_same(model, X)
            self.assert_same(model, rng.normal(size=(10, 3)))

    @given(st.integers(0, 2**31 - 1), st.integers(1, 8), st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_fitted_models(self, seed, depth, rounds):
        rng = np.random.default_rng(seed)
        X = rng.choice(VALUES, size=(60, 4))
        X[:, 0] = rng.normal(size=60)
        model = gbt.fit(X, X[:, 0] + rng.normal(size=60), loose(max_depth=depth, num_round=rounds))
        self.assert_same(model, X)
        self.assert_same(model, rng.choice(VALUES, size=(30, 4)))


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


def blocks_of(width):
    """Patch gbt to search every node, however few its rows, in blocks of
    `width` columns."""
    return mock.patch.multiple(gbt, _COLUMN_BLOCK=width, _BLOCK_CELLS=width)


def best_split(X, g, rows, cfg):
    """gbt's split search at one node, on the ranks of the whole matrix."""
    cand, ranks, _ = gbt._rank_columns(X)
    return gbt._best_split(X, cand, gbt._search_blocks(ranks, rows, cfg), g[rows], rows, cfg,
                           float(g[rows].sum()), np.arange(1, X.shape[0], dtype=np.float64))


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
        with blocks_of(block):
            new = best_split(X, g, rows, cfg)
        assert_same_split(new, exact_greedy_split_oracle(X, g, rows, cfg))

    @given(node_cases(), st.integers(1, 6), st.integers(1, 10))
    @settings(max_examples=150, deadline=None)
    def test_fit_trees_identical(self, case, depth, rounds):
        X, y, _, cfg, block = case
        cfg = gbt.GbtConfig(max_depth=depth, eta=0.3, num_round=rounds,
                            min_child_weight=cfg.min_child_weight,
                            lambda_=cfg.lambda_, gamma=cfg.gamma)
        with blocks_of(block):
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

    @given(st.integers(0, 2**31 - 1), st.sampled_from([(None, 1), (1, 3)]))
    @settings(max_examples=10, deadline=None)
    def test_dense_node_wider_than_one_block(self, seed, cells_blocks):
        # 30 rows of 133 columns: one wide block within the cell budget, or
        # three of _COLUMN_BLOCK columns when the budget buys no extra width
        cells, blocks = cells_blocks
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 6, size=(40, 2 * gbt._COLUMN_BLOCK + 5)).astype(np.float64)
        X[:, 7] = X[:, 3]  # equal gains across features
        X[:, 2 * gbt._COLUMN_BLOCK + 1] = X[:, 1]  # ... and across blocks
        g = rng.normal(size=40)
        rows = rng.permutation(40)[:30]
        cfg = gbt.GbtConfig(max_depth=2, eta=0.3, num_round=2, min_child_weight=1.0,
                            lambda_=0.0, gamma=0.0)
        with mock.patch.object(gbt, "_BLOCK_CELLS", cells or gbt._BLOCK_CELLS):
            ranks = gbt._rank_columns(X)[1]
            assert ranks.shape[0] == 2 * gbt._COLUMN_BLOCK + 5
            assert len(list(gbt._search_blocks(ranks, rows, cfg))) == blocks
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
        cand, ranks, order = gbt._rank_columns(X)
        assert cand.tolist() == [0, 1, 3] and ranks.dtype == order.dtype == dtype
        for j, f in enumerate(cand):
            assert np.array_equal(ranks[j], np.unique(X[:, f], return_inverse=True)[1])
            assert np.array_equal(order[j], np.argsort(ranks[j], kind="stable"))
        cfg = gbt.GbtConfig(max_depth=3, eta=0.3, num_round=2, min_child_weight=1.0)
        assert_same_model(gbt.fit(X, y, cfg), gbt_fit_oracle(X, y, cfg))

    def test_uint32_ranks_single_column(self):
        # 65,537 distinct values need rank 65,536; numpy sorts uint32 with timsort
        rng = np.random.default_rng(65_537)
        X = rng.normal(size=(65_537, 1))
        y = np.sin(3.0 * X[:, 0]) + rng.normal(size=65_537) * 0.1
        _, ranks, order = gbt._rank_columns(X)
        assert ranks.dtype == np.uint32 and int(ranks.max()) == 65_536
        assert np.array_equal(order[0], np.argsort(ranks[0], kind="stable"))
        cfg = gbt.GbtConfig(max_depth=2, eta=0.3, num_round=1, min_child_weight=1.0)
        assert_same_model(gbt.fit(X, y, cfg), gbt_fit_oracle(X, y, cfg))


    @pytest.mark.parametrize("n", [65_536, 65_537])
    def test_sort_key_width_edges(self, n):
        # the keys of the node of the 40,000 largest values put a 16-bit
        # position under ranks up to n - 1: 65,536 rows fill 32 bits exactly,
        # 65,537 need 64
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 1))
        g = np.sin(3.0 * X[:, 0]) + rng.normal(size=n) * 0.1
        rows = rng.permutation(np.argsort(X[:, 0])[-40_000:])
        cfg = gbt.GbtConfig(max_depth=2, eta=0.3, num_round=1, min_child_weight=1.0)
        ranks = gbt._rank_columns(X)[1]
        [(_, order, boundary, count)] = gbt._search_blocks(ranks, rows, cfg)
        assert np.array_equal(order[0], np.argsort(ranks[0, rows], kind="stable"))
        assert count == boundary.sum() == rows.size - 1  # all distinct
        assert_same_split(best_split(X, g, rows, cfg),
                          exact_greedy_split_oracle(X, g, rows, cfg))

    @given(node_cases())
    @settings(max_examples=100, deadline=None)
    def test_row_orders_are_stable_rank_sorts(self, case):
        X, _, rows, cfg, block = case
        cand, ranks, order = gbt._rank_columns(X)
        for j in range(cand.size):
            assert np.array_equal(order[j], np.argsort(ranks[j], kind="stable"))
        h = np.arange(1, rows.size)
        heavy = (h >= cfg.min_child_weight) & (rows.size - h >= cfg.min_child_weight)
        with blocks_of(block):
            blocks = list(gbt._search_blocks(ranks, rows, cfg))
            # a node no split can leave with two heavy children is not sorted
            assert bool(blocks) == (heavy.any() and cand.size > 0)
            for start, node_order, boundary, count in blocks:
                node_ranks = ranks[start:start + node_order.shape[0], rows]
                want = np.argsort(node_ranks, axis=1, kind="stable")
                assert np.array_equal(node_order, want)
                sorted_ranks = np.take_along_axis(node_ranks, want, axis=1)
                changes = sorted_ranks[:, 1:] != sorted_ranks[:, :-1]
                assert np.array_equal(boundary, changes & heavy)
                assert count == boundary.sum()

    @given(st.integers(0, 2**31 - 1), st.sampled_from(["rating", "continuous"]),
           st.integers(1, 6), st.integers(1, 10))
    @settings(max_examples=12, deadline=None)
    def test_many_rounds_identical(self, seed, shape, depth, rounds):
        # every round reuses the root's order and boundaries
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 160))
        if shape == "rating":
            X = np.column_stack([few_valued(rng, n, int(rng.integers(2, 6))) for _ in range(12)]
                                + [rng.integers(0, 63, size=n) / 62.0,
                                   rng.integers(1, 250, size=n) * 1e5])
        else:
            X = rng.normal(size=(n, 12))
        y = X[:, 0] * 2.0 + X[:, -1] / X[:, -1].max() + rng.normal(size=n)
        cfg = gbt.GbtConfig(max_depth=depth, eta=0.3, num_round=rounds,
                            min_child_weight=float(rng.integers(0, 6)))
        assert_same_model(gbt.fit(X, y, cfg), gbt_fit_oracle(X, y, cfg))

    def test_root_sorted_once_per_fit(self):
        # each round searches the root, but only the fit sorts its rows
        rng = np.random.default_rng(12)
        X = rng.normal(size=(80, 5))
        y = X[:, 0] + rng.normal(size=80) * 0.1
        cfg = gbt.GbtConfig(max_depth=3, eta=0.3, num_round=7, min_child_weight=1.0)
        with mock.patch.object(gbt, "_search_blocks", wraps=gbt._search_blocks) as sort, \
                mock.patch.object(gbt, "_best_split", wraps=gbt._best_split) as search:
            model = gbt.fit(X, y, cfg)
        assert all("f" in tree for tree in model.trees)
        sorted_rows = [call.args[1].size for call in sort.call_args_list]
        searched_rows = [call.args[4].size for call in search.call_args_list]
        assert sorted_rows.count(80) == 1 and searched_rows.count(80) == 7
        assert len(sorted_rows) == len(searched_rows) - 6


def boundary_share(X, rows, cfg):
    """Share of X[rows]'s (position, column) pairs where a split can go: the
    sorted value changes and both children are heavy enough."""
    h = np.arange(1, rows.size)
    heavy = (h >= cfg.min_child_weight) & (rows.size - h >= cfg.min_child_weight)
    values = np.sort(X[rows], axis=0)
    return float(((values[1:] != values[:-1]) & heavy[:, None]).mean())


def few_valued(rng, n, count):
    """A column of n rows holding exactly `count` distinct values."""
    column = np.resize(rng.choice([0.0, 0.405, 0.811, 1.099, 1.386], count, replace=False), n)
    return rng.permutation(column)


class TestBoundaryScoring:
    """Nodes scored at their boundaries alone (few-valued blocks) and at every
    position (continuous blocks), against the per-feature loop."""

    CFG = gbt.GbtConfig(max_depth=3, eta=0.3, num_round=2, min_child_weight=2.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_rating_shape(self, seed):
        # 25 columns with 2-5 distinct values, then a 63- and a 249-valued one
        rng = np.random.default_rng(seed)
        n = 400
        X = np.column_stack([few_valued(rng, n, int(rng.integers(2, 6))) for _ in range(25)]
                            + [rng.permutation(np.resize(np.arange(63) / 62.0, n)),
                               rng.permutation(np.resize(np.arange(1, 250) * 1e5, n))])
        y = X[:, 0] * 2.0 + X[:, 25] + rng.normal(size=n)
        g = rng.normal(size=n)
        for rows in (np.arange(n), rng.permutation(n)[:150]):
            assert boundary_share(X, rows, self.CFG) <= gbt._SPARSE_BOUNDARY_SHARE
            assert_same_split(best_split(X, g, rows, self.CFG),
                              exact_greedy_split_oracle(X, g, rows, self.CFG))
        assert_same_model(gbt.fit(X, y, self.CFG), gbt_fit_oracle(X, y, self.CFG))

    def test_equal_gains_in_few_valued_columns(self):
        # column 0's two boundaries have mirrored gradients, so the same gain;
        # columns 1 and 3 are copies that split off the positive gradients
        # like column 0's first boundary, and column 2 is noise
        k, m = 30, 40
        col0 = np.repeat([0.0, 1.0, 2.0], [k, m, k])
        g = np.repeat([1.0, 0.0, -1.0], [k, m, k])
        copy = np.where(g > 0.0, 0.0, 1.0)
        noise = np.random.default_rng(4).choice([3.0, 5.0], size=2 * k + m)
        X = np.column_stack([col0, copy, noise, copy])
        rows = np.arange(2 * k + m)
        assert boundary_share(X, rows, self.CFG) <= gbt._SPARSE_BOUNDARY_SHARE
        gains = [best_split(X[:, [j]], g, rows, self.CFG)[0] for j in range(4)]
        assert gains[0] == gains[1] == gains[3] > gains[2]
        split = best_split(X, g, rows, self.CFG)
        assert split[1:3] == (0, 0.5)
        assert_same_split(split, exact_greedy_split_oracle(X, g, rows, self.CFG))
        # without column 0 the tie is between the copies: the lower one wins
        X[:, 0] = 7.0
        split = best_split(X, g, rows, self.CFG)
        assert split[1] == 1
        assert_same_split(split, exact_greedy_split_oracle(X, g, rows, self.CFG))

    @pytest.mark.parametrize("two_valued", [1, 4])
    def test_block_mixing_two_valued_and_all_distinct(self, two_valued):
        # one two-valued column and an all-distinct one is about half
        # boundaries (every position scored); four and one is about a
        # quarter (boundaries alone)
        rng = np.random.default_rng(two_valued)
        n = 120
        X = np.column_stack([rng.choice([0.0, 1.0], size=n) for _ in range(two_valued)]
                            + [rng.normal(size=n)])
        X = X[:, rng.permutation(X.shape[1])]
        rows = rng.permutation(n)[:100]
        share = boundary_share(X, rows, self.CFG)
        assert (share <= gbt._SPARSE_BOUNDARY_SHARE) == (two_valued == 4)
        for g in (rng.normal(size=n), X @ rng.normal(size=X.shape[1])):
            assert_same_split(best_split(X, g, rows, self.CFG),
                              exact_greedy_split_oracle(X, g, rows, self.CFG))

    @pytest.mark.parametrize("sparse_first", [True, False])
    def test_blocks_on_both_sides_of_the_share(self, sparse_first):
        # blocks of four columns: four few-valued columns, then three
        # continuous ones and a copy of a few-valued column, so the best gains
        # of the two blocks can tie and the earlier block must keep the split
        rng = np.random.default_rng(8)
        n = 90
        few = np.column_stack([few_valued(rng, n, c) for c in (2, 3, 2, 4)])
        dense = np.column_stack([rng.normal(size=(n, 3)), few[:, 1]])
        blocks = [few, dense] if sparse_first else [dense, few]
        X = np.column_stack(blocks)
        rows = np.arange(n)
        with blocks_of(4):
            shares = [boundary_share(b, rows, self.CFG) for b in blocks]
            assert (shares[0] <= gbt._SPARSE_BOUNDARY_SHARE) == sparse_first
            assert (shares[1] <= gbt._SPARSE_BOUNDARY_SHARE) != sparse_first
            for g in (few[:, 1] - few[:, 1].mean(), rng.normal(size=n)):
                assert_same_split(best_split(X, g, rows, self.CFG),
                                  exact_greedy_split_oracle(X, g, rows, self.CFG))
            y = few[:, 1] * 3.0 + rng.normal(size=n) * 0.1
            assert_same_model(gbt.fit(X, y, self.CFG), gbt_fit_oracle(X, y, self.CFG))

    @pytest.mark.parametrize("scale", [1e150, 1e300])
    def test_overflowing_gradients(self, scale):
        # gradients whose squares (1e150) or sums (1e300) overflow make gains
        # of NaN and +-inf; a NaN must not hide a positive gain
        rng = np.random.default_rng(9)
        n = 60
        X = np.column_stack([rng.choice([0.0, 1.0], size=n), rng.normal(size=n)])
        rows = np.arange(n)
        gradients = (np.full(n, scale), rng.choice([-scale, scale], size=n),
                     rng.normal(size=n) * scale)
        with np.errstate(over="ignore", invalid="ignore"):
            for g in gradients:
                for cols in ([0], [1], [0, 1]):
                    assert_same_split(best_split(X[:, cols], g, rows, self.CFG),
                                      exact_greedy_split_oracle(X[:, cols], g, rows, self.CFG))


@st.composite
def fold_cases(draw):
    """(dataset, k, seed, cfg): few-valued columns with -0.0 and 0.0, a
    constant column, a near-constant one and one that is constant on the
    training rows of fold 0 alone."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, f = draw(st.integers(6, 60)), draw(st.integers(4, 9))
    X = rng.choice(draw(st.sampled_from([VALUES[:2], VALUES[:3], VALUES])), size=(n, f))
    if draw(st.booleans()):
        X[:, 4:] = rng.normal(size=(n, f - 4))
    X[:, 1] = 2.0  # constant
    X[:, 2] = -0.0  # one 0.0 leaves it constant, one 1.0 makes it near-constant
    X[rng.integers(n), 2] = draw(st.sampled_from([0.0, 1.0]))
    y = rng.choice(GRADIENTS, size=n) if draw(st.booleans()) else rng.normal(size=n)
    y[0] = 0.5  # not 0/1 targets, which make_folds would split by class
    k, seed = draw(st.integers(2, min(5, n // 2))), draw(st.integers(0, 100))
    fold = evaluation.make_folds(DenseDataset(y, X), k, seed)[0]
    X[:, 3] = 0.5
    X[fold, 3] = rng.normal(size=fold.size)  # varies only on fold 0's test rows
    cfg = gbt.GbtConfig(max_depth=draw(st.integers(1, 5)), eta=0.3,
                        num_round=draw(st.integers(1, 5)),
                        min_child_weight=float(draw(st.integers(0, 4))),
                        lambda_=draw(st.sampled_from([0.0, 1.5])),
                        gamma=draw(st.sampled_from([0.0, 0.1])))
    return DenseDataset(y, X), k, seed, cfg


def fold_views(ds, k, seed):
    """Each fold's training rows as a RowView, as kfold_cv makes them."""
    return [RowView(ds, np.delete(np.arange(ds.num_rows), fold))
            for fold in evaluation.make_folds(ds, k, seed)]


class TestFoldsReadInPlace:
    """A trainer fits each fold on the rows of its base matrix, ranked once,
    to the trees of a fit on a copy of the fold."""

    def assert_folds_match(self, ds, k, seed, cfg):
        trainer = gbt.make_trainer(cfg)
        for view in fold_views(ds, k, seed):
            new = trainer(view).model
            old = gbt_fit_oracle(ds.features[view.rows], view.labels, cfg)
            assert_same_model(new, old)
            assert repr(new.base_score) == repr(old.base_score)

    @given(fold_cases())
    @settings(max_examples=150, deadline=None)
    def test_fold_trees_identical(self, case):
        with mock.patch.object(gbt, "_rank_columns", wraps=gbt._rank_columns) as rank:
            self.assert_folds_match(*case)
        assert rank.call_count == 1

    @pytest.mark.parametrize("n", [256, 257, 65_536, 65_537])
    def test_rank_dtype_edges_at_the_full_row_count(self, n):
        # the base's ranks take the dtype of n rows, a fold's copy that of
        # fewer; the keys of its largest nodes fill 32 bits or need 64
        rng = np.random.default_rng(n)
        X = np.column_stack([rng.normal(size=n), rng.choice([-0.0, 0.0, 1.0], size=n),
                             np.full(n, 3.0)])
        y = np.sin(3.0 * X[:, 0]) + X[:, 1] + rng.normal(size=n) * 0.1
        assert gbt._rank_columns(X)[1].dtype == np.min_scalar_type(n - 1)
        cfg = gbt.GbtConfig(max_depth=2, eta=0.3, num_round=2, min_child_weight=1.0)
        self.assert_folds_match(DenseDataset(y, X), 5 if n < 1000 else 3, n, cfg)

    @given(st.integers(0, 2**31 - 1), view_orders(), st.integers(0, 30))
    @settings(max_examples=30, deadline=None)
    def test_any_view_equals_its_copy(self, seed, order, extra):
        # rows that do not ascend are sorted at the root as any node is
        rng = np.random.default_rng(seed)
        X = rng.choice(VALUES, size=(40, 5))
        ds = DenseDataset(rng.normal(size=40), X)
        view = embedded_view(ds, seed, order, extra)
        cfg = gbt.GbtConfig(max_depth=3, eta=0.3, num_round=3, min_child_weight=1.0)
        assert_same_model(gbt.make_trainer(cfg)(view).model, gbt_fit_oracle(X, ds.labels, cfg))

    def test_ranked_once_per_matrix(self, monkeypatch):
        monkeypatch.setattr(evaluation, "_MIN_FORK_FIT_S", np.inf)
        rng = np.random.default_rng(3)
        a = DenseDataset(rng.normal(size=50), rng.normal(size=(50, 4)))
        b = DenseDataset(a.labels, a.features.copy())
        trainer = gbt.make_trainer(gbt.GbtConfig(max_depth=2, eta=0.3, num_round=2))
        with mock.patch.object(gbt, "_rank_columns", wraps=gbt._rank_columns) as rank:
            evaluation.kfold_cv(a, 5, trainer, seed=1)
            assert rank.call_count == 1
            evaluation.kfold_cv(a, 3, trainer, seed=2)
            assert rank.call_count == 1
            evaluation.kfold_cv(b, 5, trainer, seed=1)  # equal values, another matrix
            assert rank.call_count == 2
            trainer(a)
            assert rank.call_count == 3
