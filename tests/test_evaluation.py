import re

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

import oracles
from conftest import make_dataset
from physiobias import evaluation
from physiobias.errors import PhysioBiasError
from physiobias.evaluation import (
    aggregate_importance,
    evaluate,
    group_difference,
    lopo_folds,
    mann_whitney_u,
    oversample_weights,
)
from physiobias.gbt import GbtParams

def participant_dataset(
    n_biased=5, n_unbiased=4, windows=6, n_features=4, seed=0, shift=0.0
):
    """A small per-window dataset; class-1 rows optionally shifted in f0."""
    rng = np.random.default_rng(seed)
    X, y, pids, widx = [], [], [], []
    for i in range(n_biased + n_unbiased):
        label = 1 if i < n_biased else 0
        for w in range(windows):
            row = rng.normal(size=n_features)
            if label:
                row[0] += shift
            X.append(row)
            y.append(label)
            pids.append(f"P{i:02d}")
            widx.append(w)
    return make_dataset(np.asarray(X), np.asarray(y), pids=np.asarray(pids, dtype=object),
                        window_indices=np.asarray(widx))


class TestLopoFolds:
    def test_one_fold_per_participant(self):
        data = participant_dataset()
        folds = lopo_folds(data)
        assert len(folds) == 9

    def test_no_leakage(self):
        data = participant_dataset()
        for train_rows, test_rows, pid in lopo_folds(data):
            assert set(data.participant_ids[test_rows]) == {pid}
            assert pid not in set(data.participant_ids[train_rows])

    def test_test_sets_partition_dataset(self):
        data = participant_dataset()
        folds = lopo_folds(data)
        all_test = np.concatenate([test for _, test, _ in folds])
        assert sorted(all_test.tolist()) == list(range(data.n_rows))

    def test_requires_two_participants(self):
        data = participant_dataset(n_biased=1, n_unbiased=0)
        with pytest.raises(PhysioBiasError,
                           match=re.escape("leave-one-participant-out needs >= 2 participants")):
            lopo_folds(data)


class TestOversample:
    def test_balances_counts(self):
        y = np.r_[np.ones(500, int), np.zeros(400, int)]
        weights = oversample_weights(y, seed=1)
        assert int(weights[y == 0].sum()) == int(weights[y == 1].sum()) == 500

    def test_originals_retained_and_majority_untouched(self):
        y = np.r_[np.ones(20, int), np.zeros(10, int)]
        weights = oversample_weights(y, seed=3)
        assert weights.dtype == np.int64 and weights.sum() == 40
        assert np.all(weights >= 1)  # every original row kept
        # every extra unit of weight lands on a minority (label 0) row
        assert np.all(weights[y == 1] == 1)

    def test_balanced_input_unchanged(self):
        y = np.r_[np.ones(10, int), np.zeros(10, int)]
        np.testing.assert_array_equal(oversample_weights(y, seed=0), np.ones(20, int))

    def test_deterministic(self):
        y = np.r_[np.ones(35, int), np.zeros(15, int)]
        np.testing.assert_array_equal(oversample_weights(y, seed=9), oversample_weights(y, seed=9))
        assert not np.array_equal(oversample_weights(y, seed=9), oversample_weights(y, seed=10))

    def test_single_class_rejected(self):
        with pytest.raises(PhysioBiasError,
                           match=re.escape("oversampling needs both classes present")):
            oversample_weights(np.ones(4, int), seed=0)

    def test_weights_count_the_seeded_draws(self):
        # One uniform draw with replacement over the minority rows per
        # missing row; each pick adds one to that row's weight.
        y = np.r_[np.ones(28, int), np.zeros(12, int)]
        minority = np.flatnonzero(y == 0)
        picks = minority[np.random.default_rng(5).integers(0, minority.size, size=16)]
        np.testing.assert_array_equal(
            oversample_weights(y, seed=5), 1 + np.bincount(picks, minlength=y.size)
        )


class TestMannWhitney:
    def test_separated_groups_match_exact_enumeration(self):
        u, p, tied = mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert u == 0.0
        exact = oracles.o_mann_whitney_exact_p([1, 2, 3], [4, 5, 6])
        assert exact == pytest.approx(0.1)
        assert abs(p - exact) <= 0.03
        assert not tied

    @pytest.mark.parametrize("seed", range(6))
    def test_normal_approximation_tracks_exact(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, 4).round(1)
        y = rng.normal(0.5, 1, 4).round(1)
        _, p, _ = mann_whitney_u(x, y)
        exact = oracles.o_mann_whitney_exact_p(list(x), list(y))
        assert abs(p - exact) <= 0.12

    def test_u_of_first_sample_matches_scipy_with_ties(self):
        x = [1.0, 2.0, 2.0, 3.0, 5.0, 5.0]
        y = [2.0, 3.0, 4.0, 5.0, 6.0]
        u, p, _ = mann_whitney_u(x, y)
        ref = mannwhitneyu(x, y, use_continuity=True, alternative="two-sided", method="asymptotic")
        assert u == ref.statistic
        assert p == pytest.approx(ref.pvalue, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_tie_run_loop_exactly(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            n1, n2 = rng.integers(1, 30, size=2)
            levels = rng.integers(1, 8)
            x = rng.integers(0, levels, n1) * 0.1
            y = rng.integers(0, levels, n2) * 0.1
            assert mann_whitney_u(x, y) == oracles.o_mann_whitney_u(x, y)

    def test_all_tied(self):
        u, p, tied = mann_whitney_u([2.0, 2.0], [2.0, 2.0, 2.0])
        assert p == 1.0
        assert tied

    def test_null_case_large_p(self):
        # seeded permutation of one pooled sample: no group difference
        rng = np.random.default_rng(12)
        pooled = rng.normal(size=24)
        perm = rng.permutation(pooled)
        _, p, _ = mann_whitney_u(perm[:12], perm[12:])
        assert p > 0.5


class TestGroupDifference:
    def test_planted_shift_detected(self):
        data = participant_dataset(n_biased=20, n_unbiased=20, windows=4,
                                   seed=5, shift=3.0)
        stats = {s["feature"]: s for s in group_difference(data)}
        assert stats["f0"]["p_value"] < 0.01
        assert min(s["p_value"] for name, s in stats.items() if name != "f0") > 0.001

    def test_requires_two_per_group(self):
        data = participant_dataset(n_biased=1, n_unbiased=4)
        with pytest.raises(PhysioBiasError,
                           match=re.escape("group statistics need >= 2 participants per group")):
            group_difference(data)

    def test_nan_windows_excluded_from_means(self):
        data = participant_dataset(n_biased=3, n_unbiased=3, windows=3, seed=6)
        data.X[data.participant_ids == "P00", 1] = np.nan
        stats = {s["feature"]: s for s in group_difference(data)}
        assert stats["f1"]["n_biased"] == 2  # P00 dropped for f1 only
        assert stats["f0"]["n_biased"] == 3


class TestAggregateImportance:
    def test_counts_membership_in_top_n(self):
        # 22 features; in each fold the two of least gain miss the top 20.
        names = [f"f{j:02d}" for j in range(22)]
        descending = {name: 22.0 - j for j, name in enumerate(names)}
        ascending = {name: 1.0 + j for j, name in enumerate(names)}
        counts, reported, threshold = aggregate_importance([descending, descending, ascending])
        assert counts == {**{name: 3 for name in names[2:20]},
                          "f00": 2, "f01": 2, "f20": 1, "f21": 1}
        assert list(counts) == [*names[2:20], "f00", "f01", "f20", "f21"]
        assert reported == [*names[2:20], "f00", "f01"]
        assert threshold == 1.5

    def test_default_threshold_half_folds(self):
        folds = [{"a": 1.0, "c": 1.0}] * 3 + [{"a": 1.0, "b": 1.0}, {"b": 1.0}, {}]
        counts, reported, threshold = aggregate_importance(folds)
        assert counts == {"a": 4, "c": 3, "b": 2}
        assert threshold == 3.0
        assert reported == ["a"]  # more than half the folds: c's 3 of 6 is not

    def test_never_split_feature_omitted(self):
        counts, _, _ = aggregate_importance([{"a": 1.0}, {}])
        assert "b" not in counts


class TestEvaluate:
    def test_baseline_26_20(self):
        data = participant_dataset(n_biased=26, n_unbiased=20, windows=2,
                                   seed=7, shift=2.0)
        report = evaluate(data, GbtParams(depth=2, rounds=4, learning_rate=0.5),
                          seed=1)
        assert report["n_participants"] == 46
        assert report["baseline"] == pytest.approx(26 / 46, abs=1e-3)

    def test_planted_effect_recovered(self):
        data = participant_dataset(n_biased=6, n_unbiased=6, windows=8,
                                   seed=8, shift=3.0)
        report = evaluate(data, GbtParams(depth=2, rounds=10, learning_rate=0.3),
                          seed=2)
        assert report["participant_metrics"]["accuracy"] >= 0.9
        assert "f0" in report["importance_reported"]

    def test_metrics_identities(self):
        data = participant_dataset(n_biased=6, n_unbiased=5, windows=6,
                                   seed=9, shift=1.0)
        report = evaluate(data, GbtParams(depth=2, rounds=6, learning_rate=0.3),
                          seed=3)
        for metrics in (report["participant_metrics"], report["window_metrics"]):
            c = metrics["confusion"]
            total = sum(c.values())
            assert metrics["accuracy"] == pytest.approx((c["tp"] + c["tn"]) / total)
            m1 = metrics["per_class"]["1"]
            if c["tp"] + c["fp"] and c["tp"] + c["fn"]:
                prec = c["tp"] / (c["tp"] + c["fp"])
                rec = c["tp"] / (c["tp"] + c["fn"])
                assert m1["precision"] == pytest.approx(prec)
                assert m1["recall"] == pytest.approx(rec)
                if prec + rec:
                    assert m1["f1"] == pytest.approx(2 * prec * rec / (prec + rec))

    def test_fold_window_order(self, monkeypatch):
        # Rows arrive in reverse window order, and f0 holds the window
        # index; a prediction that reads f0 shows the order each fold
        # predicts in.
        data = participant_dataset(n_biased=3, n_unbiased=3, windows=4, seed=11)
        data = make_dataset(data.X[::-1], data.y[::-1], pids=data.participant_ids[::-1],
                            window_indices=data.window_indices[::-1])
        data.X[:, 0] = data.window_indices
        monkeypatch.setattr(evaluation, "predict_proba_matrix", lambda model, X: X[:, 0] % 2)
        report = evaluate(data, GbtParams(depth=1, rounds=2), seed=5)
        assert len(report["folds"]) == 6
        for fold in report["folds"]:
            assert fold["predicted"] == "0101"
            assert fold["n_windows"] == 4

    def test_feature_matrix_sorted_once(self, monkeypatch):
        # Every fold and node filters one presort of the whole matrix. A
        # second argsort of a 2-D array fails the run.
        data = participant_dataset(n_biased=4, n_unbiased=3, windows=6, seed=12, shift=1.0)
        data.X[::5, 1] = np.nan
        calls = []
        argsort = np.argsort

        def counting_argsort(a, *args, **kwargs):
            if np.ndim(a) == 2:
                calls.append(np.shape(a))
                assert len(calls) == 1, "feature matrix sorted again"
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        report = evaluate(data, GbtParams(depth=3, rounds=4, learning_rate=0.3), seed=6)
        assert calls == [(data.X.shape[1], data.n_rows)]
        assert report["n_participants"] == 7
