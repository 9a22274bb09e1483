import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import deskbench
from deskbench import cli, dataio, forks, gbt, linmodels, mlp
from deskbench import evaluation as ev
from deskbench.dataio import DenseDataset, generate_synthetic

from helpers import in_parent
from oracles import (average_ranks_oracle, confusion_and_accuracy_oracle, kfold_cv_oracle,
                     macro_prf_oracle, make_folds_oracle)


class NearestCentroid:
    """Deterministic stub classifier for CV plumbing tests."""

    def __init__(self, train_ds):
        self.centroids = {
            c: train_ds.features[train_ds.labels == c].mean(axis=0)
            for c in (0.0, 1.0)
            if np.any(train_ds.labels == c)
        }

    def score(self, features):
        d0 = np.linalg.norm(features - self.centroids[0.0], axis=1)
        d1 = np.linalg.norm(features - self.centroids[1.0], axis=1)
        return d0 - d1

    def predict(self, features):
        return (self.score(features) > 0).astype(np.int64)


class ConstantPredictor:
    def __init__(self, value):
        self.value = value

    def predict(self, features):
        return np.full(features.shape[0], self.value)


class ConstantClassifier(ConstantPredictor):
    """A constant class id, with all scores tied."""

    def score(self, features):
        return np.zeros(features.shape[0])


class MeanRegressor:
    def __init__(self, train_ds):
        self.mean = float(train_ds.labels.mean())

    def predict(self, features):
        return np.full(features.shape[0], self.mean)


class TestConfusionAndAccuracy:
    def test_perfect(self):
        confusion, acc = ev.confusion_and_accuracy([0, 1, 1, 0], [0, 1, 1, 0])
        assert acc == 1.0
        assert confusion[0][1] == 0 and confusion[1][0] == 0

    def test_all_wrong(self):
        _, acc = ev.confusion_and_accuracy([0, 1], [1, 0])
        assert acc == 0.0

    def test_hand_count(self):
        confusion, acc = ev.confusion_and_accuracy([1, 1, 0, 0], [1, 0, 0, 1])
        assert acc == 0.5
        assert confusion == [[1, 1], [1, 1]]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ev.confusion_and_accuracy([0, 1], [0])

    def test_non_binary(self):
        with pytest.raises(ValueError):
            ev.confusion_and_accuracy([0, 2], [0, 1])

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_entries_sum_to_count(self, pairs):
        labels = [a for a, _ in pairs]
        preds = [b for _, b in pairs]
        confusion, acc = ev.confusion_and_accuracy(labels, preds)
        assert sum(sum(row) for row in confusion) == len(pairs)
        assert 0.0 <= acc <= 1.0


class TestMacroPrf:
    def test_perfect_two_class(self):
        assert ev.macro_prf([0, 1, 0, 1], [0, 1, 0, 1], 2) == (1.0, 1.0, 1.0)

    def test_never_predicted_class_zero_precision(self):
        # class 1 never predicted: its P = R = F1 = 0 by convention
        p, r, f1 = ev.macro_prf([0, 0, 1], [0, 0, 0], 2)
        assert p == pytest.approx((1.0 * 2 / 3 + 0.0) / 2)

    def test_absent_class_counted(self):
        # num_classes=3 but class 2 never appears; macro still divides by 3
        p, r, f1 = ev.macro_prf([0, 1], [0, 1], 3)
        assert p == r == f1 == pytest.approx(2 / 3)

    def test_hand_table_three_class(self):
        labels = [0, 0, 0, 0, 1, 1, 2, 2, 2]
        preds = [0, 0, 1, 2, 1, 1, 2, 0, 1]
        # class 0: P=2/3 R=1/2 F1=4/7; class 1: P=1/2 R=1 F1=2/3;
        # class 2: P=1/2 R=1/3 F1=2/5
        p, r, f1 = ev.macro_prf(labels, preds, 3)
        assert p == pytest.approx((2 / 3 + 1 / 2 + 1 / 2) / 3, abs=1e-12)
        assert r == pytest.approx((1 / 2 + 1 + 1 / 3) / 3, abs=1e-12)
        assert f1 == pytest.approx((4 / 7 + 2 / 3 + 2 / 5) / 3, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ev.macro_prf([0, 3], [0, 1], 3)

    @given(
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=50),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_joint_permutation_invariance(self, pairs, rand):
        shuffled = list(pairs)
        rand.shuffle(shuffled)
        a = ev.macro_prf([x for x, _ in pairs], [y for _, y in pairs], 3)
        b = ev.macro_prf([x for x, _ in shuffled], [y for _, y in shuffled], 3)
        assert a == pytest.approx(b, abs=1e-12)


def auc_pair_oracle(labels, scores):
    """O(n^2) concordant/tied pair count."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    greater = (pos[:, None] > neg[None, :]).sum()
    equal = (pos[:, None] == neg[None, :]).sum()
    return (greater + 0.5 * equal) / (pos.size * neg.size)


class TestAucRoc:
    def test_perfect_separation(self):
        assert ev.auc_roc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_all_ties(self):
        assert ev.auc_roc([0, 1, 0, 1], [3.0, 3.0, 3.0, 3.0]) == 0.5

    def test_against_pair_oracle_with_ties(self):
        rng = np.random.default_rng(404)
        labels = rng.integers(0, 2, size=200)
        labels[:2] = [0, 1]
        scores = rng.integers(0, 25, size=200).astype(np.float64)
        assert ev.auc_roc(labels, scores) == pytest.approx(
            auc_pair_oracle(labels, scores), abs=1e-12
        )

    def test_single_class_errors(self):
        with pytest.raises(ValueError):
            ev.auc_roc([1, 1, 1], [0.1, 0.2, 0.3])

    def test_non_finite_errors(self):
        with pytest.raises(ValueError):
            ev.auc_roc([0, 1], [0.0, float("inf")])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_complement_rule_tie_free(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=30)
        labels[:2] = [0, 1]
        scores = rng.permutation(np.arange(30, dtype=np.float64))
        total = ev.auc_roc(labels, scores) + ev.auc_roc(labels, -scores)
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        scores = rng.normal(size=40)
        transformed = np.exp(3.0 * scores) + 7.0
        assert ev.auc_roc(labels, scores) == pytest.approx(
            ev.auc_roc(labels, transformed), abs=1e-12
        )


SCORE_KINDS = {
    "distinct": lambda rng, n: rng.permutation(n) + rng.random(n),
    "heavy ties": lambda rng, n: rng.integers(0, 3, size=n).astype(np.float64),
    "signed zeros": lambda rng, n: rng.choice([-0.0, 0.0, 1.0], size=n),
    "all equal": lambda rng, n: np.full(n, 0.25),
}


FOLD_LABELS = {
    "balanced": lambda rng, n: rng.integers(0, 2, size=n).astype(np.float64),
    "two positives": lambda rng, n: np.isin(np.arange(n), rng.choice(n, 2, replace=False)) * 1.0,
    "one positive": lambda rng, n: (np.arange(n) == rng.integers(n)) * 1.0,
    "all negative": lambda rng, n: np.zeros(n),
    "continuous": lambda rng, n: rng.normal(size=n),
    "class ids": lambda rng, n: rng.integers(0, 4, size=n).astype(np.float64),
}


class TestMetricsMatchOracles:
    @given(st.sampled_from(sorted(SCORE_KINDS)), st.integers(2, 300),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=120, deadline=None)
    @example("distinct", 2, 0)
    @example("heavy ties", 2, 0)
    @example("all equal", 2, 0)
    def test_ranks_and_auc_bit_identical(self, kind, n, seed):
        rng = np.random.default_rng(seed)
        scores = SCORE_KINDS[kind](rng, n)
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        assert ev._average_ranks(scores).tobytes() == average_ranks_oracle(scores).tobytes()
        auc = ev.auc_roc(labels, scores)
        with mock.patch.object(ev, "_average_ranks", average_ranks_oracle):
            assert repr(auc) == repr(ev.auc_roc(labels, scores))

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_confusion_matches_oracle(self, pairs):
        labels = [a for a, _ in pairs]
        preds = [b for _, b in pairs]
        confusion, acc = ev.confusion_and_accuracy(labels, preds)
        expected_confusion, expected_acc = confusion_and_accuracy_oracle(labels, preds)
        assert confusion == expected_confusion and repr(acc) == repr(expected_acc)
        assert all(type(v) is int for row in confusion for v in row)
        assert type(acc) is float

    @given(st.integers(1, 5), st.integers(1, 60), st.integers(0, 2**31 - 1))
    @settings(max_examples=150, deadline=None)
    @example(1, 1, 0)
    @example(5, 3, 0)
    def test_macro_prf_bit_identical(self, k, n, seed):
        # labels and predictions each come from a random subset of the k
        # classes, so some classes are never present or never predicted
        rng = np.random.default_rng(seed)
        present = rng.choice(k, size=rng.integers(1, k + 1), replace=False)
        predicted = rng.choice(k, size=rng.integers(1, k + 1), replace=False)
        labels, preds = rng.choice(present, size=n), rng.choice(predicted, size=n)
        got = ev.macro_prf(labels, preds, k)
        assert repr(got) == repr(macro_prf_oracle(labels, preds, k))
        assert all(type(v) is float for v in got)

    @pytest.mark.parametrize("labels, preds, k", [
        ([0, 0, 1], [0, 0, 0], 2),        # class 1 never predicted
        ([0, 1], [0, 1], 3),              # class 2 never present nor predicted
        ([2, 2, 2], [0, 1, 1], 3),        # no true positive at all
        ([0, 0, 0, 0, 1, 1, 2, 2, 2], [0, 0, 1, 2, 1, 1, 2, 0, 1], 3),
        ([3, 1, 4, 1, 0], [3, 1, 4, 1, 0], 5),
    ])
    def test_macro_prf_hand_cases_bit_identical(self, labels, preds, k):
        assert repr(ev.macro_prf(labels, preds, k)) == repr(macro_prf_oracle(labels, preds, k))


class TestRegressionMetrics:
    def test_perfect(self):
        assert ev.regression_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == (0.0, 0.0, 1.0)

    def test_mean_predictor_r2_zero(self):
        targets = [1.0, 2.0, 3.0, 4.0]
        preds = [2.5] * 4
        _, _, r2 = ev.regression_metrics(targets, preds)
        assert r2 == pytest.approx(0.0, abs=1e-12)

    def test_hand_values(self):
        rmse, mae, r2 = ev.regression_metrics([1, 2, 3], [1, 2, 5])
        assert rmse == pytest.approx(np.sqrt(4 / 3), abs=1e-12)
        assert mae == pytest.approx(2 / 3, abs=1e-12)
        assert r2 == pytest.approx(-1.0, abs=1e-12)

    def test_zero_variance_r2_absent(self):
        rmse, mae, r2 = ev.regression_metrics([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        assert r2 is None
        assert rmse == pytest.approx(np.sqrt(2 / 3))
        assert mae == pytest.approx(2 / 3)

    def test_too_short(self):
        with pytest.raises(ValueError):
            ev.regression_metrics([1.0], [1.0])


class TestKfoldCv:
    def binary_ds(self, n=100, seed=11):
        return generate_synthetic(n, 5, separation=2.0, seed=seed)

    def test_fold_sizes_100_rows_k5(self):
        folds = ev.make_folds(self.binary_ds(100), 5, seed=3)
        assert [f.size for f in folds] == [20] * 5

    def test_fold_sizes_differ_by_at_most_one(self):
        folds = ev.make_folds(self.binary_ds(103), 5, seed=3)
        sizes = sorted(f.size for f in folds)
        assert sizes == [20, 20, 21, 21, 21]

    def test_partition_exact(self):
        ds = self.binary_ds(97)
        folds = ev.make_folds(ds, 4, seed=9)
        combined = np.sort(np.concatenate(folds))
        assert np.array_equal(combined, np.arange(97))

    def test_average_is_mean_of_folds(self):
        reports, avg = ev.kfold_cv(self.binary_ds(), 5, NearestCentroid, seed=0)
        assert len(reports) == 5
        expected = np.mean([r.accuracy for r in reports])
        assert avg.accuracy == pytest.approx(expected, abs=1e-12)
        assert avg.wall_clock_s == pytest.approx(sum(r.wall_clock_s for r in reports))

    def test_confusions_sum_in_average(self):
        ds = self.binary_ds()
        reports, avg = ev.kfold_cv(ds, 5, NearestCentroid, seed=0)
        assert sum(sum(row) for row in avg.confusion) == ds.num_rows

    def test_deterministic(self):
        ds = self.binary_ds()
        _, a = ev.kfold_cv(ds, 5, NearestCentroid, seed=21)
        _, b = ev.kfold_cv(ds, 5, NearestCentroid, seed=21)
        assert a.accuracy == b.accuracy and a.auc_roc == b.auc_roc

    def test_single_positive_coverage_failure(self):
        labels = np.zeros(40)
        labels[0] = 1.0
        ds = DenseDataset(labels, np.random.default_rng(0).normal(size=(40, 3)))
        with pytest.raises(ValueError, match="both classes"):
            ev.make_folds(ds, 4, seed=0)

    @given(st.sampled_from(sorted(FOLD_LABELS)), st.integers(2, 60), st.integers(2, 6),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_make_folds_match_oracle(self, kind, n, k, seed):
        labels = FOLD_LABELS[kind](np.random.default_rng(seed), n)
        ds = DenseDataset(labels, np.zeros((n, 1)))
        k = min(k, n)
        try:
            expected = make_folds_oracle(ds, k, seed)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                ev.make_folds(ds, k, seed)
            assert str(raised.value) == str(exc)
            return
        folds = ev.make_folds(ds, k, seed)
        assert [f.tolist() for f in folds] == [f.tolist() for f in expected]

    def test_make_folds_reshuffles_match_oracle(self):
        # 2 positives in 40 rows, 4 folds: about 1 shuffle in 4 puts both in one fold
        labels = np.zeros(40)
        labels[[3, 17]] = 1.0
        ds = DenseDataset(labels, np.zeros((40, 1)))
        reshuffled = 0
        for seed in range(40):
            folds = ev.make_folds(ds, 4, seed)
            assert [f.tolist() for f in folds] == [
                f.tolist() for f in make_folds_oracle(ds, 4, seed)]
            first = np.array_split(np.random.default_rng(seed).permutation(40), 4)
            reshuffled += not all(np.array_equal(a, b) for a, b in zip(folds, first))
        assert reshuffled > 0

    def test_regression_reports(self):
        rng = np.random.default_rng(5)
        ds = DenseDataset(rng.normal(size=60) + 5.0, rng.normal(size=(60, 4)))
        reports, avg = ev.kfold_cv(ds, 3, MeanRegressor, seed=1)
        assert all(r.accuracy is None for r in reports)
        assert avg.rmse is not None and avg.mae is not None

    def test_k_too_small(self):
        with pytest.raises(ValueError):
            ev.make_folds(self.binary_ds(), 1, seed=0)

    @pytest.mark.parametrize("trainer, with_score", [
        (MeanRegressor, False), (NearestCentroid, True), (NearestCentroid, False)],
        ids=["regression", "predict-and-score", "predict-only"])
    def test_fit_and_predict_timed_apart(self, trainer, with_score):
        # a fake clock that only the stub trainer and predictor advance: fit
        # takes 2 s, predict 0.5 s and score 0.25 s (exact binary fractions)
        clock = [0.0]

        class Stub:
            def __init__(self, train_ds):
                clock[0] += 2.0
                self.inner = trainer(train_ds)
                if with_score and hasattr(self.inner, "score"):
                    self.score = self._score

            def predict(self, features):
                clock[0] += 0.5
                return self.inner.predict(features)

            def _score(self, features):
                clock[0] += 0.25
                return self.inner.score(features)

        scored = with_score and trainer is NearestCentroid
        with mock.patch.object(ev.time, "perf_counter", lambda: clock[0]):
            reports, avg = ev.kfold_cv(self.binary_ds(), 4, Stub, seed=0)
        predict_s = 0.75 if scored else 0.5
        for report in reports:
            assert (report.fit_s, report.predict_s) == (2.0, predict_s)
            assert report.wall_clock_s == 2.0 + predict_s
        assert (avg.fit_s, avg.predict_s, avg.wall_clock_s) == (8.0, 4 * predict_s,
                                                                 4 * (2.0 + predict_s))
        assert list(asdict(avg))[-3:] == ["wall_clock_s", "fit_s", "predict_s"]

    @pytest.mark.parametrize("trainer, regression", [
        (MeanRegressor, True),
        (lambda ds: ConstantPredictor(1), True),
        (lambda ds: ConstantPredictor(True), True),
        (NearestCentroid, False),
        (lambda ds: ConstantClassifier(True), False),
    ], ids=["float-regressor", "int-ids-no-score", "bool-ids-no-score",
            "int-ids-with-score", "bool-ids-with-score"])
    def test_task_follows_score(self, trainer, regression):
        """A predictor with score is a classifier; one without, a regressor,
        whatever the dtype of its predictions on 0/1 labels."""
        reports, avg = ev.kfold_cv(self.binary_ds(), 5, trainer, seed=0)
        for report in reports + [avg]:
            assert (report.rmse is not None) == regression
            assert (report.mae is not None) == regression
            assert (report.accuracy is not None) != regression
            assert (report.confusion is not None) != regression


TIMINGS = ("wall_clock_s", "fit_s", "predict_s")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def untimed(report: dict) -> dict:
    return {name: value for name, value in report.items() if name not in TIMINGS}


def assert_serial_result(ds, k, trainer, seed):
    """kfold_cv's reports and average equal the serial oracle's but for timings."""
    reports, avg = ev.kfold_cv(ds, k, trainer, seed)
    ref, ref_avg = kfold_cv_oracle(ds, k, trainer, seed)
    assert [untimed(asdict(r)) for r in reports] == [untimed(asdict(r)) for r in ref]
    assert untimed(asdict(avg)) == untimed(asdict(ref_avg))
    return reports


@pytest.fixture()
def forced_forks(monkeypatch):
    """kfold_cv forks after any first fit, on three usable cores, whatever
    threads BLAS keeps spinning in this process."""
    monkeypatch.setattr(ev, "_MIN_FORK_FIT_S", 0.0)
    monkeypatch.setattr(time, "process_time", time.perf_counter)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))


def numbered_ds(n=40, seed=3):
    """A binary dataset whose first feature is the row number."""
    ds = generate_synthetic(n, 3, separation=2.0, seed=seed)
    ds.features[:, 0] = np.arange(n)
    return ds


def fold_of(train_ds, folds) -> int:
    """The fold a numbered_ds training set leaves out."""
    held_out = set(range(sum(f.size for f in folds))) - set(train_ds.features[:, 0].astype(int))
    return next(i for i, fold in enumerate(folds) if held_out == set(fold.tolist()))


def recording(folds, seen):
    """NearestCentroid as a trainer that appends the fold each training set
    leaves out to seen."""
    def trainer(train_ds):
        seen.append(fold_of(train_ds, folds))
        return NearestCentroid(train_ds)
    return trainer


CLASSIFY = linmodels.make_trainer("logistic", linmodels.SgdConfig(
    lambda_=1e-4, epochs_or_iters=3, learning_rate=0.1, seed=1))
REGRESS = gbt.make_trainer(gbt.GbtConfig(max_depth=2, eta=0.3, num_round=3,
                                         min_child_weight=1.0))


class TestKfoldForks:
    """Folds 1..k-1 in forked children once the first fit passes the gate:
    the reports of a serial run, the serial error, every child reaped."""

    @pytest.mark.parametrize("k, children", [(2, 0), (3, 1), (5, 2)])
    @pytest.mark.parametrize("task", ["classify", "regress"])
    def test_reports_equal_the_serial_oracle(self, forced_forks, fork_pids, k, children, task):
        ds = generate_synthetic(60, 4, separation=2.0, seed=k)
        trainer = CLASSIFY
        if task == "regress":
            ds = DenseDataset(ds.features @ np.arange(1.0, 5.0), ds.features)
            trainer = REGRESS
        reports = assert_serial_result(ds, k, trainer, seed=k)
        assert len(reports) == k and len(fork_pids) == children

    def test_single_class_test_fold(self, forced_forks, fork_pids):
        labels = np.zeros(20)
        labels[[2, 9, 15]] = 1.0
        ds = DenseDataset(labels, np.random.default_rng(4).normal(size=(20, 3)))
        reports = assert_serial_result(ds, 5, NearestCentroid, seed=2)
        assert any(r.auc_roc is None for r in reports) and len(fork_pids) == 2

    def test_side_effects_kept_for_fold_0_and_the_last_group(self, forced_forks, fork_pids):
        ds = numbered_ds()
        folds = ev.make_folds(ds, 5, seed=1)
        seen = []

        def trainer(train_ds):
            seen.append(fold_of(train_ds, folds))
            return NearestCentroid(train_ds)

        ev.kfold_cv(ds, 5, trainer, seed=1)
        assert seen == [0, 3, 4] and len(fork_pids) == 2  # groups [1], [2], [3, 4]

    @pytest.mark.parametrize("failing", [{1}, {2, 4}], ids=["child", "child-and-parent"])
    def test_trainer_error_is_the_serial_error(self, forced_forks, fork_pids, failing):
        ds = numbered_ds()
        folds = ev.make_folds(ds, 5, seed=1)

        def trainer(train_ds):
            fold = fold_of(train_ds, folds)
            if fold in failing:
                raise ValueError(f"fold {fold} refused")
            return NearestCentroid(train_ds)

        with pytest.raises(ValueError) as serial:
            kfold_cv_oracle(ds, 5, trainer, seed=1)
        with pytest.raises(ValueError) as forked:
            ev.kfold_cv(ds, 5, trainer, seed=1)
        assert str(forked.value) == str(serial.value) == f"fold {min(failing)} refused"
        assert len(fork_pids) == 2

    def test_child_killed_mid_send_gives_serial_result(self, forced_forks, fork_pids,
                                                       monkeypatch):
        send = forks._send

        def dying_send(fd, data):
            view = memoryview(data).cast("B")
            if len(view) <= 8:
                return send(fd, view)
            send(fd, view[:len(view) // 2])
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(forks, "_send", dying_send)
        assert_serial_result(generate_synthetic(60, 4, 2.0, seed=8), 5, CLASSIFY, seed=8)
        assert len(fork_pids) == 2

    def test_fork_refused_runs_the_groups_left_here(self, forced_forks, fork_pids,
                                                    monkeypatch):
        fork = os.fork  # the counting fork; the second call finds no process to spare

        def one_fork():
            if fork_pids:
                raise BlockingIOError("fork: Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", one_fork)
        assert_serial_result(generate_synthetic(60, 4, 2.0, seed=9), 5, CLASSIFY, seed=9)
        assert len(fork_pids) == 1

    def test_fork_refused_keeps_fold_k_minus_1_last(self, forced_forks, refused_fork,
                                                    fork_pids):
        ds, seen = numbered_ds(), []
        trainer = recording(ev.make_folds(ds, 5, seed=1), seen)
        reports, _ = ev.kfold_cv(ds, 5, trainer, seed=1)
        assert seen[-1] == 4 and len(fork_pids) == refused_fork
        ref, _ = kfold_cv_oracle(ds, 5, NearestCentroid, seed=1)
        assert [untimed(asdict(r)) for r in reports] == [untimed(asdict(r)) for r in ref]

    def test_lost_groups_run_after_the_last_group(self, forced_forks, fork_pids, monkeypatch):
        monkeypatch.setattr(forks, "_send", lambda fd, data: os.kill(os.getpid(), signal.SIGKILL))
        ds, seen = numbered_ds(), []
        trainer = recording(ev.make_folds(ds, 5, seed=1), seen)
        ev.kfold_cv(ds, 5, trainer, seed=1)
        assert seen == [0, 3, 4, 1, 2] and len(fork_pids) == 2  # groups [1], [2], [3, 4]

    def test_interrupt_kills_children_and_reraises(self, forced_forks, fork_pids):
        calls = []

        def trainer(train_ds):
            if not in_parent():
                time.sleep(60)
            calls.append(1)
            if len(calls) > 1:  # the parent's own group, after fold 0
                raise KeyboardInterrupt
            return NearestCentroid(train_ds)

        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            ev.kfold_cv(numbered_ds(), 5, trainer, seed=1)
        assert time.monotonic() - started < 30  # killed, not waited for
        assert len(fork_pids) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("case", ["fast-fit", "one-core", "busy-cores"])
    def test_gate_keeps_the_folds_here(self, monkeypatch, fork_pids, case):
        cores = 1 if case == "one-core" else 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        if case != "fast-fit":
            monkeypatch.setattr(ev, "_MIN_FORK_FIT_S", 0.0)
        if case == "busy-cores":  # fold 0 as if a BLAS had kept two cores busy
            monkeypatch.setattr(time, "process_time", lambda: 2.0 * time.perf_counter())
        ds = generate_synthetic(60, 4, separation=2.0, seed=5)
        assert_serial_result(ds, 5, NearestCentroid, seed=5)
        assert fork_pids == []

    def test_cv_with_default_blas_threads(self, tmp_path):
        """`deskbench cv --algo mlp` with BLAS left to start its own threads
        forks its folds, finishes and reports the serial oracle's metrics.
        The layers are small enough that BLAS runs each product on one thread."""
        data = tmp_path / "d.csv"
        dataio.save_dense(generate_synthetic(2400, 20, separation=2.0, seed=6), data)
        env = {name: value for name, value in os.environ.items()
               if name not in BLAS_THREAD_VARS}
        env["PYTHONPATH"] = str(Path(deskbench.__file__).resolve().parents[1])
        counted_cli = ("import sys; from deskbench import cli, forks; fork, n = forks._fork, []; "
                       "forks._fork = lambda *a: n.append(1) or fork(*a); "
                       "code = cli.main(sys.argv[1:]); print('forks', len(n)); sys.exit(code)")
        out = subprocess.run([sys.executable, "-c", counted_cli, "cv", "--algo", "mlp",
                              "--data", data, "--k", "3", "--hidden-size", "32",
                              "--epochs", "30", "--seed", "6", "--outdir", tmp_path],
                             env=env, check=True, timeout=120, capture_output=True, text=True)
        assert out.stdout.split()[-2:] == ["forks", "1" if len(os.sched_getaffinity(0)) > 1
                                           else "0"]
        folds = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["folds"]
        params = json.loads((tmp_path / "effective-config.json").read_text(encoding="utf-8"))
        ds = dataio.load_dense(data)
        trainer, _ = cli._trainer_for("mlp", params, ds)
        ref, _ = kfold_cv_oracle(ds, 3, trainer, seed=6)
        assert [untimed(f) for f in folds] == [untimed(asdict(r)) for r in ref]


def reads_features(trainer):
    """trainer, after reading train_ds.features: a trainer that copies its rows."""
    def copying(train_ds):
        train_ds.features
        return trainer(train_ds)
    return copying


class TestCvMemory:
    """A serial kfold_cv holds the dataset and one test fold: trainers read
    their training rows in place, never from a copy of them."""

    K = 4
    # a trainer's own buffers (an MLP's validation rows, batches and layers)
    ALLOWANCE = 768 << 10
    TRAINERS = {
        "logistic": linmodels.make_trainer("logistic", linmodels.SgdConfig(
            lambda_=1e-4, epochs_or_iters=2, seed=1, class_weights=(1.0, 2.0))),
        "svm": linmodels.make_trainer("svm", linmodels.SgdConfig(
            lambda_=1e-3, epochs_or_iters=2000, seed=1, class_weights=(1.0, 2.0))),
        "mlp": mlp.make_trainer(
            mlp.MlpArchitecture(input_size=100, hidden_size=16, num_hidden_blocks=2,
                                dropout_p=0.1),
            mlp.MlpTrainConfig(learning_rate=1e-3, epochs=2, batch_size=64, seed=1,
                               class_weights=(1.0, 2.0))),
    }

    def cv_over_bound(self, monkeypatch, trainer) -> int:
        """Bytes by which a serial 2000x100 CV peaks above the matrix times
        (1 + 1/K) plus ALLOWANCE; the matrix is allocated before tracing."""
        monkeypatch.setattr(ev, "_MIN_FORK_FIT_S", math.inf)
        ds = generate_synthetic(2000, 100, separation=1.0, seed=5)
        tracemalloc.start()
        try:
            ev.kfold_cv(ds, self.K, trainer, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix = ds.features.nbytes
        return matrix + peak - (matrix * (1 + 1 / self.K) + self.ALLOWANCE)

    @pytest.mark.parametrize("algo", sorted(TRAINERS))
    def test_peak_below_matrix_and_one_test_fold(self, monkeypatch, algo):
        assert self.cv_over_bound(monkeypatch, self.TRAINERS[algo]) < 0

    @pytest.mark.parametrize("algo", sorted(TRAINERS))
    def test_a_trainer_reading_features_breaks_the_bound(self, monkeypatch, algo):
        assert self.cv_over_bound(monkeypatch, reads_features(self.TRAINERS[algo])) > 0


class TestAssignmentPlan:
    ALGOS = ["lr", "rf", "mlp", "xgb", "svm"]
    PARTS = ["p0", "p1", "p2", "p3", "p4"]

    def test_table_pairings(self):
        plan = ev.build_assignment_plan(self.ALGOS, self.PARTS)
        assert plan.instances == [
            ("A", ("lr", "rf"), 0),
            ("B", ("mlp", "lr"), 1),
            ("C", ("xgb", "mlp"), 2),
            ("D", ("svm", "xgb"), 3),
            ("E", ("svm", "rf"), 4),
        ]

    def test_each_algorithm_twice(self):
        plan = ev.build_assignment_plan(self.ALGOS, self.PARTS)
        flat = [a for _, pair, _ in plan.instances for a in pair]
        assert sorted(flat) == sorted(self.ALGOS * 2)

    def test_wrong_cardinality(self):
        with pytest.raises(ValueError):
            ev.build_assignment_plan(self.ALGOS[:4], self.PARTS)
        with pytest.raises(ValueError):
            ev.build_assignment_plan(self.ALGOS, self.PARTS[:3])

    def make_datasets(self, seed0=100):
        return [generate_synthetic(60, 4, separation=1.0, seed=seed0 + i) for i in range(5)]

    def trainers(self):
        return {algo: (lambda ds: ConstantClassifier(1)) for algo in self.ALGOS}

    def test_run_plan_smoke(self):
        plan = ev.build_assignment_plan(self.ALGOS, self.PARTS)
        result = ev.run_plan(plan, self.make_datasets(), self.trainers(), seed=0)
        assert sorted(result.per_algorithm) == sorted(self.ALGOS)
        assert len(result.per_instance) == 10
        for _, report in result.per_algorithm.items():
            assert report.accuracy is not None

    def test_unbound_algorithms_fail_before_training(self):
        plan = ev.build_assignment_plan(self.ALGOS, self.PARTS)
        calls = []
        trainers = {algo: (lambda ds: calls.append(ds) or ConstantClassifier(1))
                    for algo in ("lr", "mlp", "svm")}
        with pytest.raises(ValueError, match=r"\['rf', 'xgb'\]"):
            ev.run_plan(plan, self.make_datasets(), trainers, seed=0)
        assert calls == []

    def test_partition_swap_locality(self):
        plan = ev.build_assignment_plan(self.ALGOS, self.PARTS)
        datasets = self.make_datasets()
        trainers = {algo: NearestCentroid for algo in self.ALGOS}
        base = ev.run_plan(plan, datasets, trainers, seed=0)
        swapped_ds = [datasets[1], datasets[0]] + datasets[2:]
        swapped = ev.run_plan(plan, swapped_ds, trainers, seed=0)
        base_by_key = {(i, a): r for i, a, r in base.per_instance}
        swap_by_key = {(i, a): r for i, a, r in swapped.per_instance}
        for key in base_by_key:
            instance_id = key[0]
            if instance_id in ("A", "B"):
                assert base_by_key[key].accuracy != swap_by_key[key].accuracy
            else:
                assert base_by_key[key].accuracy == swap_by_key[key].accuracy


class TestGridSearch:
    def ds(self):
        return generate_synthetic(50, 3, separation=2.0, seed=7)

    def test_full_product_36(self):
        grid = {"a": [1, 2, 3], "b": [1, 2, 3], "c": [1, 2], "d": [1, 2]}
        factory = lambda **params: (lambda ds: ConstantClassifier(1))
        best, points = ev.grid_search(grid, 2, self.ds(), factory, seed=0)
        assert len(points) == 36

    def test_lexicographic_order(self):
        grid = {"beta": [10, 20], "alpha": [1, 2]}
        factory = lambda **params: (lambda ds: ConstantClassifier(1))
        _, points = ev.grid_search(grid, 2, self.ds(), factory, seed=0)
        assert [p.params for p in points] == [
            {"alpha": 1, "beta": 10},
            {"alpha": 1, "beta": 20},
            {"alpha": 2, "beta": 10},
            {"alpha": 2, "beta": 20},
        ]

    def test_single_combination(self):
        best, points = ev.grid_search(
            {"x": [5]}, 2, self.ds(), lambda **p: NearestCentroid, seed=0
        )
        assert best == {"x": 5}
        assert len(points) == 1

    def test_tie_goes_to_earliest(self):
        grid = {"x": [1, 2], "y": [1, 2]}
        factory = lambda **params: (lambda ds: ConstantClassifier(0))
        best, points = ev.grid_search(grid, 2, self.ds(), factory, seed=0)
        assert len({p.score for p in points}) == 1
        assert best == {"x": 1, "y": 1}

    def test_regression_min_rmse_wins(self):
        rng = np.random.default_rng(2)
        ds = DenseDataset(rng.normal(size=40), rng.normal(size=(40, 3)))

        class Biased:
            def __init__(self, offset):
                self.offset = offset

            def __call__(self, train_ds):
                mean = float(train_ds.labels.mean()) + self.offset
                return ConstantPredictor(mean)

        best, points = ev.grid_search(
            {"offset": [5.0, 0.0, 2.0]}, 2, ds, lambda offset: Biased(offset), seed=0
        )
        assert best == {"offset": 0.0}

    def test_float_predictions_on_binary_labels_rank_by_rmse(self):
        def factory(offset):
            return lambda train_ds: ConstantPredictor(train_ds.labels.mean() + offset)

        best, points = ev.grid_search({"offset": [0.9, 0.0, 0.6]}, 2, self.ds(), factory, seed=0)
        assert best == {"offset": 0.0}
        assert [p.score for p in points] == [p.report.rmse for p in points]
        assert all(p.report.accuracy is None for p in points)

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            ev.grid_search({}, 2, self.ds(), lambda **p: NearestCentroid, seed=0)

    def test_empty_value_list(self):
        with pytest.raises(ValueError):
            ev.grid_search({"x": []}, 2, self.ds(), lambda **p: NearestCentroid, seed=0)


class TestReportSerialization:
    def test_csv_header_order(self):
        text = ev.report_csv_rows([])
        assert text == "run_id,algo,fold,accuracy,macro_f1,auc_roc,rmse,mae,r2,wall_clock_s\n"

    def test_csv_row_with_absent_fields(self):
        report = ev.EvalReport(rmse=0.5, mae=0.25, r2=None, wall_clock_s=1.5)
        text = ev.report_csv_rows([("run1", "gbt", 0, report)])
        line = text.splitlines()[1]
        assert line == "run1,gbt,0,,,,0.5,0.25,,1.5"

    def test_json_round_trip(self):
        report = ev.EvalReport(
            accuracy=0.9,
            macro_precision=0.8,
            macro_recall=0.7,
            macro_f1=0.74,
            auc_roc=0.95,
            confusion=[[40, 5], [3, 52]],
            wall_clock_s=2.0,
        )
        assert ev.EvalReport(**json.loads(json.dumps(asdict(report)))) == report

    def test_save_csv(self, tmp_path):
        path = tmp_path / "report.csv"
        ev.save_report_csv(path, [("r", "a", 1, ev.EvalReport(accuracy=1.0))])
        lines = path.read_text().splitlines()
        assert lines[0].split(",") == list(ev.CSV_COLUMNS)
        assert lines[1].startswith("r,a,1,1.0,")
