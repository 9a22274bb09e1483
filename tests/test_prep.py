"""Tests for contextual imputation, dedup, ring undersampling, augmentation."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deskbench import prep, textfeat
from deskbench.dataio import NUMBER, TEXT, TabularFrame
from deskbench.errors import ConfigError, DataFormatError
from deskbench.prep import (
    AugmentResult,
    BacktranslationParaphraser,
    ClassReport,
    ImputePlan,
    RingConfig,
    SynonymAugmenter,
    _largest_remainder_quotas,
    augment,
    class_report,
    dedupe_spam,
    impute_apply,
    impute_fit,
    normalize_year,
    rebalance,
    ring_undersample,
)

from oracles import centroid_distances_oracle, rebalance_oracle, ring_undersample_oracle


def movie_frame():
    columns = [("rating", NUMBER), ("director", TEXT), ("genre", TEXT)]
    cells = [
        [5.0, "X", "Drama"],
        [7.0, "Y", "Drama"],
        [8.0, "Z", "War"],
        [None, None, "Drama, War"],
        [9.0, "X", None],
        [None, "X", "War"],
        [None, "Q", "Scifi"],
        [None, None, "Drama, Scifi"],
    ]
    return TabularFrame(columns, cells)


class TestImpute:
    def test_fit_group_means(self):
        plan = impute_fit(movie_frame(), "rating", ("director", "genre"))
        assert plan.group_means["genre"]["Drama"] == pytest.approx(6.0)
        assert plan.group_means["genre"]["War"] == pytest.approx(8.0)
        assert plan.group_means["director"]["X"] == pytest.approx(7.0)
        assert plan.global_mean == pytest.approx((5 + 7 + 8 + 9) / 4)

    def test_fit_ignores_missing_target_rows(self):
        # row 5 (director X, War) has no rating, so it must not shift means
        plan = impute_fit(movie_frame(), "rating", ("director", "genre"))
        assert plan.group_means["genre"]["War"] == pytest.approx(8.0)
        assert "Scifi" not in plan.group_means["genre"]

    def test_multivalue_cell_credits_each_value(self):
        columns = [("rating", NUMBER), ("genre", TEXT)]
        cells = [[4.0, "Drama, War"], [8.0, "War"]]
        plan = impute_fit(TabularFrame(columns, cells), "rating", ("genre",))
        assert plan.group_means["genre"]["Drama"] == pytest.approx(4.0)
        assert plan.group_means["genre"]["War"] == pytest.approx(6.0)

    def test_apply_mean_of_available_value_means(self):
        frame = movie_frame()
        plan = impute_fit(frame, "rating", ("director", "genre"))
        out = impute_apply(frame, plan)
        # "Drama, War" with no director: (6.0 + 8.0) / 2
        assert out.column("rating")[3] == pytest.approx(7.0)

    def test_apply_first_context_level_wins(self):
        frame = movie_frame()
        plan = impute_fit(frame, "rating", ("director", "genre"))
        out = impute_apply(frame, plan)
        # row 5 matches director X (7.0) before genre War (8.0)
        assert out.column("rating")[5] == pytest.approx(7.0)

    def test_apply_global_fallback(self):
        frame = movie_frame()
        plan = impute_fit(frame, "rating", ("director", "genre"))
        out = impute_apply(frame, plan)
        assert out.column("rating")[6] == pytest.approx(plan.global_mean)

    def test_apply_partial_multivalue_uses_known_only(self):
        frame = movie_frame()
        plan = impute_fit(frame, "rating", ("director", "genre"))
        out = impute_apply(frame, plan)
        # "Drama, Scifi": only Drama has a mean
        assert out.column("rating")[7] == pytest.approx(6.0)

    def test_apply_leaves_present_targets_untouched(self):
        frame = movie_frame()
        plan = impute_fit(frame, "rating", ("director", "genre"))
        out = impute_apply(frame, plan)
        for i in (0, 1, 2, 4):
            assert out.column("rating")[i] == frame.column("rating")[i]

    def test_apply_fills_every_missing_cell(self):
        frame = movie_frame()
        plan = impute_fit(frame, "rating", ("director", "genre"))
        out = impute_apply(frame, plan)
        assert all(v is not None for v in out.column("rating"))
        assert frame.column("rating")[3] is None  # input not mutated

    def test_fit_all_targets_missing_raises(self):
        columns = [("rating", NUMBER), ("genre", TEXT)]
        frame = TabularFrame(columns, [[None, "Drama"], [None, "War"]])
        with pytest.raises(DataFormatError):
            impute_fit(frame, "rating", ("genre",))

    def test_fit_rejects_text_target(self):
        frame = movie_frame()
        with pytest.raises(DataFormatError):
            impute_fit(frame, "genre", ("director",))

    def test_fit_rejects_numeric_context(self):
        frame = movie_frame()
        with pytest.raises(DataFormatError):
            impute_fit(frame, "rating", ("rating",))

    def test_default_context_columns(self):
        plan_cols = ImputePlan("r", ("a",), {}, 0.0).context_columns
        assert plan_cols == ("a",)
        columns = [("rating", NUMBER), ("director", TEXT), ("writer", TEXT),
                   ("genre", TEXT), ("actors", TEXT)]
        frame = TabularFrame(columns, [[3.0, "d", "w", "g", "a"], [None, "d", None, None, None]])
        plan = impute_fit(frame, "rating")
        assert plan.context_columns == ("director", "writer", "genre", "actors")
        assert impute_apply(frame, plan).column("rating")[1] == pytest.approx(3.0)


class TestDedupeSpam:
    def frame(self, texts):
        return TabularFrame([("review", TEXT), ("k", NUMBER)],
                            [[t, float(i)] for i, t in enumerate(texts)])

    def test_exact_duplicate_keeps_earlier_row(self):
        out = dedupe_spam(self.frame(["Great movie", "other text here", "Great movie"]),
                          "review", 2)
        assert out.column("k") == [0.0, 1.0]

    def test_trim_and_case_insensitive_duplicates(self):
        out = dedupe_spam(self.frame(["Great movie", "  great MOVIE  "]), "review", 1)
        assert out.column("k") == [0.0]

    def test_short_texts_dropped(self):
        out = dedupe_spam(self.frame(["ok", "three word review", ""]), "review", 3)
        assert out.column("k") == [1.0]

    def test_missing_text_counts_zero_tokens(self):
        out = dedupe_spam(self.frame([None, "two words"]), "review", 1)
        assert out.column("k") == [1.0]

    def test_order_stable(self):
        texts = ["b b", "a a", "c c", "a a"]
        out = dedupe_spam(self.frame(texts), "review", 1)
        assert out.column("review") == ["b b", "a a", "c c"]

    def test_idempotent(self):
        frame = self.frame(["Great movie", "great movie", "x", "solid long review here"])
        once = dedupe_spam(frame, "review", 2)
        twice = dedupe_spam(once, "review", 2)
        assert twice.cells == once.cells

    def test_min_tokens_zero_keeps_everything_unique(self):
        out = dedupe_spam(self.frame(["", "a"]), "review", 0)
        assert out.num_rows == 2

    def test_negative_min_tokens_rejected(self):
        with pytest.raises(ConfigError):
            dedupe_spam(self.frame(["x"]), "review", -1)


class TestQuotas:
    def test_exact_proportional(self):
        assert _largest_remainder_quotas([30, 60, 30], 40) == [10, 20, 10]

    def test_leftover_goes_to_largest_remainders(self):
        # exact shares 1.875, 1.125: floor [1, 1], leftover to index 0
        assert _largest_remainder_quotas([5, 3], 3) == [2, 1]

    def test_remainder_tie_breaks_by_index(self):
        # shares 4/3 each: floors [1, 1, 1], one leftover -> ring 0
        assert _largest_remainder_quotas([10, 10, 10], 4) == [2, 1, 1]

    def test_empty_group_gets_zero(self):
        assert _largest_remainder_quotas([0, 4], 2) == [0, 2]

    def test_sums_to_target(self):
        sizes = [11, 11, 11, 10, 10, 10, 10, 10, 10, 10]
        for target in range(0, 104):
            quotas = _largest_remainder_quotas(sizes, target)
            assert sum(quotas) == target
            assert all(0 <= q <= s for q, s in zip(quotas, sizes))

    def test_target_exceeding_total_raises(self):
        with pytest.raises(ConfigError):
            _largest_remainder_quotas([2, 2], 5)


def three_shell_points():
    """Three concentric shells of 40 points each at radii 1, 5, 10."""
    angles = 2 * np.pi * np.arange(40) / 40
    shells = []
    for radius in (1.0, 5.0, 10.0):
        shells.append(radius * np.stack([np.cos(angles), np.sin(angles)], axis=1))
    return np.concatenate(shells, axis=0)


class TestRingUndersample:
    def test_target_equal_to_size_returns_all(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(17, 4))
        picked = ring_undersample(points, RingConfig(target_size=17, num_rings=5, seed=3))
        assert picked == list(range(17))

    def test_hundred_points_ten_rings_fifty_gives_five_per_ring(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(100, 3))
        picked = ring_undersample(points, RingConfig(target_size=50, num_rings=10, seed=9))
        assert len(picked) == 50
        # independent ring reconstruction from the stated geometry
        dists = np.linalg.norm(points - points.mean(axis=0), axis=1)
        order = np.lexsort((np.arange(100), dists))
        for ring in np.array_split(order, 10):
            assert len(set(picked) & set(ring.tolist())) == 5

    def test_three_shell_proportional_retention(self):
        points = three_shell_points()
        picked = ring_undersample(points, RingConfig(target_size=30, num_rings=3, seed=5))
        assert len(picked) == 30
        share = 30 * 40 // 120
        for shell in range(3):
            members = set(range(40 * shell, 40 * (shell + 1)))
            assert len(members & set(picked)) >= share

    def test_deterministic_for_seed(self):
        points = three_shell_points()
        cfg = RingConfig(target_size=25, num_rings=4, seed=11)
        assert ring_undersample(points, cfg) == ring_undersample(points, cfg)

    def test_output_sorted_unique(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(53, 2))
        picked = ring_undersample(points, RingConfig(target_size=20, num_rings=7, seed=1))
        assert picked == sorted(set(picked))

    def test_more_rings_than_points(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(5, 2))
        picked = ring_undersample(points, RingConfig(target_size=3, num_rings=10, seed=0))
        assert len(picked) == 3

    def test_target_above_size_raises(self):
        with pytest.raises(ConfigError):
            ring_undersample(np.zeros((4, 2)), RingConfig(target_size=5, num_rings=2))

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            RingConfig(target_size=1, num_rings=0)
        with pytest.raises(ConfigError):
            RingConfig(target_size=-1)

    def test_non_2d_rejected(self):
        with pytest.raises(DataFormatError):
            ring_undersample(np.zeros(6), RingConfig(target_size=2))

    @settings(deadline=None, max_examples=40)
    @given(n=st.integers(2, 60), rings=st.integers(1, 12),
           frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
    def test_selection_is_subset_of_requested_size(self, n, rings, frac, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, 3))
        target = int(round(frac * n))
        cfg = RingConfig(target_size=target, num_rings=rings, seed=seed)
        picked = ring_undersample(points, cfg)
        assert len(picked) == target
        assert picked == sorted(set(picked))
        assert all(0 <= i < n for i in picked)
        assert picked == ring_undersample(points, cfg)


# Values with exact ties, signed zeros, tiny and overflowing squares.
SPECIAL_VALUES = np.array([0.0, -0.0, 1.0, -1.0, 0.1, -2.5, 1e-300, 1e200])


@st.composite
def ring_cases(draw):
    """(points, block_rows, cfg): row counts at block boundaries +-1 (one row
    included), one to 130 columns, repeated rows, special values, both memory
    orders, targets 0 and n and more rings than rows."""
    block_rows = draw(st.integers(2, 5))
    n = max(1, block_rows * draw(st.integers(0, 4)) + draw(st.integers(-1, 1)))
    d = draw(st.sampled_from([0, 1, 2, 3, 8, 9, 17, 130]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "special", "repeated"]))
    if kind == "normal":
        points = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, (n, d))
    elif kind == "special":
        points = rng.choice(SPECIAL_VALUES, (n, d))
    else:
        pool = rng.standard_normal((max(1, n // 3), d))
        points = pool[rng.integers(0, len(pool), n)]
    points = np.asarray(points, order=draw(st.sampled_from("CF")))
    target = draw(st.sampled_from([0, n]) | st.integers(0, n))
    cfg = RingConfig(target, draw(st.integers(1, n + 3)), draw(st.integers(0, 99)))
    return points, block_rows, cfg


class TestRingMatchesOracle:
    @given(ring_cases())
    @settings(max_examples=300, deadline=None)
    def test_blocked_distances_and_selection(self, case):
        points, block_rows, cfg = case
        budget = block_rows * points.itemsize * max(points.shape[1], 1)
        with mock.patch.object(prep, "_BLOCK_BYTES", budget), \
                np.errstate(over="ignore", invalid="ignore"):
            dists = prep._centroid_distances(points)
            assert dists.tobytes() == centroid_distances_oracle(points).tobytes()
            assert ring_undersample(points, cfg) == ring_undersample_oracle(points, cfg)

    def test_default_block_on_a_wide_strided_matrix(self):
        rng = np.random.default_rng(12)
        wide = rng.standard_normal((300, 2 * 1100))[:, ::2]
        rows = prep._BLOCK_BYTES // (8 * wide.shape[1])
        assert 2 <= rows < wide.shape[0]  # several blocks, one partial
        cfg = RingConfig(120, 10, 4)
        assert prep._centroid_distances(wide).tobytes() == \
            centroid_distances_oracle(wide).tobytes()
        assert ring_undersample(wide, cfg) == ring_undersample_oracle(wide, cfg)


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes it allocated."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestBalanceMemory:
    def test_ring_undersample_holds_one_block(self):
        points = np.random.default_rng(5).standard_normal((4000, 256))
        cfg = RingConfig(500, 10, 2)
        picked, peak = traced_peak(ring_undersample, points, cfg)
        assert picked == ring_undersample_oracle(points, cfg)
        # one block of differences plus a few arrays of one value per row,
        # never a (rows x dim) temporary
        assert peak < prep._BLOCK_BYTES + 64 * points.shape[0] < points.nbytes // 2

    def test_rebalance_holds_one_class_matrix(self):
        texts = [f"w{i % 97} w{i % 89} good movie" for i in range(1500)] + ["bad food"] * 50
        labels = ["big"] * 1500 + ["small"] * 50
        dim = 1024
        args = (texts, labels, 200, 1, 10, 3, dim, 1)
        (rows, failures), peak = traced_peak(rebalance, *args)
        assert (rows, failures) == rebalance_oracle(*args)
        class_bytes = 1500 * dim * 8
        # the big class once, one distance block and the sparse corpus
        assert peak < class_bytes + prep._BLOCK_BYTES + class_bytes // 4


class TestAugment:
    def corpus(self):
        return [("good movie", 1), ("bad food", 0)]

    def test_factor_one_is_identity(self):
        out = augment(self.corpus(), SynonymAugmenter(), factor=1, seed=0)
        assert out.items == self.corpus()
        assert out.failures == 0

    def test_factor_three_on_ten_items_gives_thirty(self):
        corpus = [(f"good text {i}", i % 3) for i in range(10)]
        out = augment(corpus, SynonymAugmenter(), factor=3, seed=4)
        assert len(out.items) == 30
        assert out.failures == 0

    def test_originals_kept_and_labels_preserved(self):
        out = augment(self.corpus(), SynonymAugmenter({"good": ("great",)}), factor=2, seed=0)
        assert out.items[0] == ("good movie", 1)
        assert out.items[1] == ("great movie", 1)
        assert out.items[2] == ("bad food", 0)
        assert [label for _, label in out.items] == [1, 1, 0, 0]

    def test_deterministic_for_seed(self):
        a = augment(self.corpus(), SynonymAugmenter(), factor=4, seed=7)
        b = augment(self.corpus(), SynonymAugmenter(), factor=4, seed=7)
        assert a.items == b.items

    def test_failures_skipped_and_counted(self):
        def boom(text, rng):
            raise RuntimeError("augmenter down")

        out = augment(self.corpus(), boom, factor=3, seed=0)
        assert out.items == self.corpus()
        assert out.failures == 4

    def test_partial_failure_keeps_other_items(self):
        def picky(text, rng):
            if "bad" in text:
                raise ValueError("no")
            return text + "!"

        out = augment(self.corpus(), picky, factor=2, seed=0)
        assert out.items == [("good movie", 1), ("good movie!", 1), ("bad food", 0)]
        assert out.failures == 1

    def test_factor_below_one_rejected(self):
        with pytest.raises(ConfigError):
            augment(self.corpus(), SynonymAugmenter(), factor=0)

    def test_synonym_choices_come_from_table(self):
        aug = SynonymAugmenter({"good": ("great", "fine")})
        rng = np.random.default_rng(0)
        for _ in range(20):
            first = aug("good good", rng).split()
            assert set(first) <= {"great", "fine"}

    def test_backtranslation_transport_contract(self):
        requests = []

        def transport(req):
            requests.append(req)
            return {"text": req["text"].upper()}

        para = BacktranslationParaphraser(transport, source="es", pivot="en")
        out = augment([("hola mundo", 2)], para, factor=2, seed=0)
        assert out.items == [("hola mundo", 2), ("HOLA MUNDO", 2)]
        assert requests == [{"text": "hola mundo", "source": "es", "pivot": "en"}]

    def test_backtranslation_bad_reply_counted_as_failure(self):
        para = BacktranslationParaphraser(lambda req: {"nope": 1})
        out = augment([("x y", 0)], para, factor=2, seed=0)
        assert out.items == [("x y", 0)]
        assert out.failures == 1


class TestNormalizeYear:
    def frame(self, years):
        return TabularFrame([("year", NUMBER)], [[y] for y in years])

    def test_endpoints_and_midpoint(self):
        out = normalize_year(self.frame([1950.0, 2000.0, None, 1975.0]), "year")
        assert out.column("year")[0] == pytest.approx(0.0)
        assert out.column("year")[1] == pytest.approx(1.0)
        assert out.column("year")[2] is None
        assert out.column("year")[3] == pytest.approx(0.5)

    def test_constant_column_raises(self):
        with pytest.raises(DataFormatError):
            normalize_year(self.frame([1999.0, 1999.0]), "year")

    def test_all_missing_raises(self):
        with pytest.raises(DataFormatError):
            normalize_year(self.frame([None, None]), "year")

    def test_text_column_raises(self):
        frame = TabularFrame([("year", TEXT)], [["1999"]])
        with pytest.raises(DataFormatError):
            normalize_year(frame, "year")

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30).filter(
        lambda xs: max(xs) > min(xs)))
    def test_range_property(self, years):
        out = normalize_year(self.frame(years), "year").column("year")
        assert min(out) == pytest.approx(0.0)
        assert max(out) == pytest.approx(1.0)
        assert all(-1e-12 <= v <= 1 + 1e-12 for v in out)


class TestClassReport:
    def test_polarity_fixture_total(self):
        counts = {1: 5441, 2: 5496, 3: 15519, 4: 45034, 5: 136561}
        labels = np.repeat(list(counts.keys()), list(counts.values()))
        report = class_report(labels)
        assert report.total == 208051
        assert report.counts == [(5, 136561), (4, 45034), (3, 15519),
                                 (2, 5496), (1, 5441)]

    def test_descending_with_label_tie_break(self):
        report = class_report(["b", "a", "a", "b", "c"])
        assert report.counts == [("a", 2), ("b", 2), ("c", 1)]
        assert report.total == 5

    def test_csv_shape(self):
        report = class_report([1, 1, 0])
        lines = report.to_csv().splitlines()
        assert lines[0] == "label,count"
        assert lines[1] == "1,2"
        assert lines[-1] == "total,3"

    def test_empty(self):
        report = class_report([])
        assert report == ClassReport([], 0)


REVIEW_WORDS = ("good", "bad", "movie", "food", "service", "place", "quiet", "the", "x")


@st.composite
def balance_cases(draw):
    """(texts, labels, target, factor, rings, seed, dim, min_doc_freq): a few
    classes on both sides of the target, empty texts, synonym-table words."""
    text = st.one_of(st.just(""), st.lists(st.sampled_from(REVIEW_WORDS), max_size=6).map(" ".join))
    rows = draw(st.lists(st.tuples(text, st.sampled_from("abc")), max_size=14))
    texts = [t for t, _ in rows]
    labels = [label for _, label in rows]
    return (texts, labels, draw(st.integers(0, 6)), draw(st.integers(1, 3)),
            draw(st.integers(1, 4)), draw(st.integers(0, 3)),
            draw(st.sampled_from([1, 2, 16])), draw(st.integers(0, 3)))


def balance_outcome(fn, *args):
    """(rows, failures), or the exception type and message."""
    try:
        return fn(*args)
    except Exception as exc:  # the comparison is the point
        return type(exc), str(exc)


class TestRebalance:
    @given(balance_cases())
    @example(([], [], 2, 2, 3, 0, 2, 1))
    @example(([""] * 5 + ["good movie"] * 2, ["a"] * 5 + ["b"] * 2, 3, 3, 2, 1, 1, 0))
    @settings(max_examples=60, deadline=None)
    def test_matches_inline_loop(self, case):
        assert balance_outcome(rebalance, *case) == balance_outcome(rebalance_oracle, *case)

    @given(st.lists(st.lists(st.sampled_from(REVIEW_WORDS), max_size=8).map(" ".join),
                    min_size=1, max_size=12),
           st.sampled_from([1, 2, 16]))
    @settings(max_examples=60, deadline=None)
    def test_dense_rows_match_per_row_to_dense(self, texts, dim):
        vectors, _ = textfeat.vectorize_corpus(texts, None, dim, 0)
        dense = prep._dense_rows(vectors, dim)
        assert dense.tobytes() == np.stack([v.to_dense() for v in vectors]).tobytes()

    def test_classes_above_at_and_below_target(self):
        texts = [f"good movie {i}" for i in range(7)] + ["bad food"] * 3 + ["quiet place"]
        labels = ["big"] * 7 + ["at"] * 3 + ["small"]
        rows, failures = rebalance(texts, labels, 3, 3, 2, 0, 16, 1)
        assert [label for _, label in rows] == ["big"] * 3 + ["at"] * 3 + ["small"] * 3
        assert failures == 0

    @pytest.mark.parametrize("factor, rings, message", [
        (0, 10, "factor must be >= 1"),
        (-3, 10, "factor must be >= 1"),
        (2, 0, "num_rings must be >= 1"),
    ])
    def test_bad_parameters_fail_before_vectorizing(self, monkeypatch, factor, rings, message):
        def unreachable(*args):
            raise AssertionError("vectorized despite bad parameters")

        monkeypatch.setattr("deskbench.textfeat.vectorize_corpus", unreachable)
        with pytest.raises(ConfigError, match=message):
            rebalance(["good", "bad", "movie"], ["a", "b", "c"], 5, factor, rings, 0, 8, 1)
