import json

import numpy as np
import pytest

import oracles
from conftest import best_split, make_dataset, tree_dict
from physiobias import gbt
from physiobias.errors import DegenerateLabels, ShapeError
from physiobias.gbt import (
    GbtParams,
    importance,
    predict_proba_matrix,
    train,
)


def xor_dataset(n=200, seed=7):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(n, 2)).astype(float)
    y = (X[:, 0].astype(int) ^ X[:, 1].astype(int))
    return make_dataset(X, y)


class TestTrain:
    def test_xor_representable_at_depth_2(self):
        data = xor_dataset()
        model = train(data, GbtParams(depth=2, rounds=50))
        acc = np.mean((predict_proba_matrix(model, data.X) >= 0.5) == data.y)
        assert acc >= 0.95

    def test_separable_feature_wins_root(self):
        # One feature separates the classes; brute force confirms the gain
        # formula puts the first split there.
        rng = np.random.default_rng(1)
        n = 60
        y = rng.integers(0, 2, n)
        X = np.column_stack([rng.normal(size=n), y + rng.normal(0, 0.05, n)])
        data = make_dataset(X, y)
        model = train(data, GbtParams(depth=1, rounds=1))
        tree = model.trees[0]
        assert tree.feature[0] == 1
        p0 = float(np.mean(y))
        g = np.full(n, p0) - y
        h = np.full(n, p0 * (1 - p0))
        want = oracles.o_best_split(X, g, h, np.arange(n), 1.0, 1.0)
        assert tree.feature[0] == want[1]
        assert tree.threshold[0] == pytest.approx(want[2], rel=1e-12)

    def test_threshold_between_values_near_the_float_maximum_is_finite(self):
        # 1.5e308 + 1.6e308 overflows; the midpoint itself does not.
        data = make_dataset(np.array([[1.0], [1.2], [1.5], [1.6]]) * 1e308, np.array([0, 0, 1, 1]))
        model = train(data, GbtParams(depth=1, rounds=1, learning_rate=1.0, min_child_weight=0.0))
        assert model.trees[0].threshold[0] == pytest.approx(1.35e308, rel=1e-15)
        probs = predict_proba_matrix(model, data.X)
        assert np.all(probs[:2] < 0.5) and np.all(probs[2:] > 0.5)

    def test_single_class_rejected(self):
        data = make_dataset(np.random.default_rng(0).normal(size=(10, 2)), np.ones(10))
        with pytest.raises(DegenerateLabels):
            train(data, GbtParams())

    def test_loss_monotone_nonincreasing(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(150, 6))
        y = (X[:, 0] + 0.5 * X[:, 1] + rng.normal(0, 0.6, 150) > 0).astype(int)
        model = train(make_dataset(X, y), GbtParams(depth=3, rounds=60))
        losses = np.asarray(model.train_losses)
        assert np.all(np.diff(losses) <= 1e-12)

    def test_deterministic(self):
        data = xor_dataset()
        params = GbtParams(depth=3, rounds=20)
        a = train(data, params)
        b = train(data, params)
        dump = lambda m: json.dumps([tree_dict(t) for t in m.trees], sort_keys=True)
        assert dump(a) == dump(b)
        assert a.train_losses == b.train_losses


class TestSplitOracle:
    """Chosen splits match an exhaustive brute-force scan on small data."""

    @pytest.mark.parametrize("seed", range(12))
    def test_first_split_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 51))
        d = int(rng.integers(1, 6))
        X = rng.normal(size=(n, d))
        if seed % 3 == 0:
            X = np.round(X * 2) / 2  # force duplicate values
        if seed % 2 == 0:
            X[rng.random((n, d)) < 0.2] = np.nan
        y = rng.integers(0, 2, n)
        if len(np.unique(y)) < 2:
            y[0] = 1 - y[0]
        p0 = float(np.mean(y))
        g = np.full(n, p0) - y
        h = np.full(n, p0 * (1 - p0))
        got = best_split(X, g, h, np.arange(n), 1.0, 0.1)
        want = oracles.o_best_split(X, g, h, np.arange(n), 1.0, 0.1)
        if want is None:
            assert got is None
            return
        gain = want[0]
        assert got is not None
        assert got.gain == pytest.approx(gain, rel=1e-9, abs=1e-12)
        # The implementation must have chosen one of the maximizing splits;
        # when the maximum is unique the triple must match exactly. (Exact
        # gain ties are common here: round-one gradients take only two
        # distinct values, so splits isolating the same label mix coincide.)
        at_max = _argmax_candidates(X, g, h, n, d, gain)
        assert any(
            got.feature == f
            and got.threshold == pytest.approx(thr, rel=1e-12)
            and (got.missing_left == ml or not np.isnan(X[:, f]).any())
            for f, thr, ml in at_max
        )
        if len(at_max) == 1:
            f, thr, ml = at_max[0]
            assert (got.feature, got.missing_left) == (f, ml) or not np.isnan(X[:, f]).any()
            assert got.threshold == pytest.approx(thr, rel=1e-12)


def _argmax_candidates(X, g, h, n, d, best_gain):
    """All brute-force splits whose gain ties the maximum (within 1e-12)."""
    out = []
    g_tot, h_tot = g.sum(), h.sum()
    parent = g_tot * g_tot / (h_tot + 1.0)
    for f in range(d):
        v = X[:, f]
        missing = np.isnan(v)
        gm, hm = g[missing].sum(), h[missing].sum()
        values = np.unique(v[~missing])
        for a, b in zip(values[:-1], values[1:]):
            thr = 0.5 * (a + b)
            below = ~missing & (v < thr)
            gl0, hl0 = g[below].sum(), h[below].sum()
            for ml in (True, False):
                gl = gl0 + (gm if ml else 0.0)
                hl = hl0 + (hm if ml else 0.0)
                if hl < 0.1 or h_tot - hl < 0.1:
                    continue
                gr = g_tot - gl
                gain = 0.5 * (gl * gl / (hl + 1.0) + gr * gr / (h_tot - hl + 1.0) - parent)
                if abs(gain - best_gain) <= 1e-12 * max(1.0, abs(best_gain)):
                    out.append((f, thr, ml))
    return out


def _weighted_data(seed, n=600):
    """Seeded rows with missing values in two columns, tied values in one,
    a label driven by two columns, and integer row weights 0-3."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 5))
    X[:, 1] = np.round(X[:, 1] * 2) / 2
    y = (X[:, 0] + 0.8 * X[:, 2] + rng.normal(0, 0.7, n) > 0).astype(int)
    X[rng.random(n) < 0.15, 0] = np.nan
    X[rng.random(n) < 0.25, 3] = np.nan
    weights = rng.integers(0, 4, n)
    return make_dataset(X, y), weights


def _assert_same_trees(got, want):
    """Same features and default branches; thresholds, gains and leaf
    weights within 1e-12 relative, round by round.

    Splits that tie in exact arithmetic are the exception. They are common
    in round one, whose gradients take two values, so that splits with the
    same weighted label mix have the same gain, and rounding picks among
    them, differently for two learners that sum in different orders. Where
    the two pick different splits, their gains must agree within 1e-12
    relative; the ensembles part there, so the comparison ends.
    """
    assert len(got) == len(want)
    for tree_got, tree_want in zip(got, want):
        stack = [(tree_got, tree_want)]
        while stack:
            a, b = stack.pop()
            assert ("feature" in a) == ("feature" in b)
            if "feature" not in b:
                assert a["weight"] == pytest.approx(b["weight"], rel=1e-12)
                continue
            assert a["gain"] == pytest.approx(b["gain"], rel=1e-12)
            if (a["feature"], a["missing_left"]) != (b["feature"], b["missing_left"]) or \
                    a["threshold"] != pytest.approx(b["threshold"], rel=1e-12):
                return
            stack += [(a["right"], b["right"]), (a["left"], b["left"])]


def _trees(model):
    return [tree_dict(t) for t in model.trees]


class TestRowWeights:
    """Weighted training on one presort equals the learner on duplicated
    rows with a fresh argsort per node. The data keep dozens of rows per
    node (600 rows, min_child_weight 5), so that most of each ensemble is
    compared before a tie (see _assert_same_trees) can end a comparison."""

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_duplicated_rows_oracle(self, seed, depth):
        data, weights = _weighted_data(seed)
        params = GbtParams(depth=depth, rounds=4, learning_rate=0.3, min_child_weight=5.0)
        model = train(data, params, weights)
        base_score, trees = oracles.o_train_duplicated(
            data.X, data.y, weights, depth=depth, rounds=4, learning_rate=0.3,
            min_child_weight=5.0,
        )
        assert model.base_score == base_score
        _assert_same_trees(_trees(model), trees)

    def test_weight_k_equals_k_copies(self):
        data, weights = _weighted_data(11)
        params = GbtParams(depth=3, rounds=5, learning_rate=0.3, min_child_weight=5.0)
        weighted = train(data, params, weights)
        rows = np.repeat(np.arange(data.n_rows), weights)
        copies = train(make_dataset(data.X[rows], data.y[rows]), params)
        assert weighted.base_score == copies.base_score
        _assert_same_trees(_trees(weighted), _trees(copies))
        np.testing.assert_allclose(weighted.train_losses, copies.train_losses, rtol=1e-12)

    def test_weight_zero_equals_removing_the_row(self):
        data, weights = _weighted_data(12)
        params = GbtParams(depth=3, rounds=5, learning_rate=0.3, min_child_weight=5.0)
        kept = weights > 0
        weighted = train(data, params, weights)
        removed = train(make_dataset(data.X[kept], data.y[kept]), params, weights[kept])
        assert weighted.base_score == removed.base_score
        _assert_same_trees(_trees(weighted), _trees(removed))
        np.testing.assert_array_equal(
            predict_proba_matrix(weighted, data.X), predict_proba_matrix(removed, data.X)
        )

    def test_nan_free_column_defaults_left(self):
        # Column 0 holds missing values, the others none. With continuous
        # gradients, a NaN-free column's prefix sums end a rounding error
        # away from the node total; that error must not pick its default.
        chosen = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = 80
            X = rng.normal(size=(n, 3))
            X[rng.random(n) < 0.3, 0] = np.nan
            g = rng.normal(size=n)
            h = rng.uniform(0.1, 1.0, n)
            split = best_split(X, g, h, np.arange(n), 1.0, 0.1)
            if split is not None and split.feature != 0:
                chosen += 1
                assert split.missing_left
        assert chosen >= 10
        data, weights = _weighted_data(13)
        model = train(data, GbtParams(depth=4, rounds=10, learning_rate=0.3), weights)
        for tree in model.trees:
            nan_free = (tree.feature >= 0) & ~np.isin(tree.feature, (0, 3))
            assert tree.missing_left[nan_free].all()


class TestPredict:
    def test_zero_trees_prior(self):
        data = xor_dataset()
        model = train(data, GbtParams(rounds=0))
        prior = float(np.mean(data.y))
        expected = 1.0 / (1.0 + np.exp(-np.log(prior / (1 - prior))))
        assert predict_proba_matrix(model, data.X[:1])[0] == pytest.approx(expected)
        assert expected == pytest.approx(prior)

    def test_constant_features_converge_to_prior(self):
        rng = np.random.default_rng(3)
        X = np.ones((90, 3))
        y = (rng.random(90) < 0.3).astype(int)
        model = train(make_dataset(X, y), GbtParams(depth=2, rounds=30))
        p = predict_proba_matrix(model, X[:1])[0]
        assert p == pytest.approx(float(np.mean(y)), abs=1e-6)

    def test_missing_value_takes_default_branch(self):
        # Train with NaNs placed only in class-1 rows so the default branch
        # carries them; a NaN row at predict time must follow that branch.
        rng = np.random.default_rng(4)
        n = 80
        y = rng.integers(0, 2, n)
        X = rng.normal(size=(n, 1))
        X[y == 1, 0] = np.nan
        model = train(make_dataset(X, y), GbtParams(depth=1, rounds=10, min_child_weight=0.1))
        p_nan, p_num = predict_proba_matrix(model, np.array([[np.nan], [0.0]]))
        assert p_nan > 0.5 > p_num

    def test_every_row_reaches_exactly_one_leaf(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(120, 5))
        X[rng.random((120, 5)) < 0.3] = np.nan
        y = rng.integers(0, 2, 120)
        if len(np.unique(y)) < 2:
            y[0] = 1 - y[0]
        model = train(make_dataset(X, y), GbtParams(depth=4, rounds=5, min_child_weight=0.1))
        values = predict_proba_matrix(model, X)
        assert np.all(np.isfinite(values))

    def test_margin_matches_a_walk_per_row(self):
        # The level-by-level descent against one root-to-leaf walk per row.
        data, weights = _weighted_data(14, n=300)
        model = train(data, GbtParams(depth=4, rounds=6, learning_rate=0.3), weights)
        X = np.vstack([data.X, np.full((1, data.X.shape[1]), np.nan)])
        want = np.full(X.shape[0], model.base_score)
        for tree in model.trees:
            for r, x in enumerate(X):
                node = 0
                while tree.feature[node] >= 0:
                    v = x[tree.feature[node]]
                    left = tree.missing_left[node] if np.isnan(v) else v < tree.threshold[node]
                    node = tree.left[node] if left else tree.right[node]
                want[r] += model.params.learning_rate * tree.weight[node]
        np.testing.assert_array_equal(gbt.predict_margin(model, X), want)

    def test_width_mismatch(self):
        model = train(xor_dataset(), GbtParams(rounds=1))
        with pytest.raises(ShapeError):
            predict_proba_matrix(model, np.zeros((1, 5)))
        with pytest.raises(ShapeError):
            predict_proba_matrix(model, np.zeros((3, 5)))


class TestImportance:
    def test_stump_ensemble_concentrates(self):
        rng = np.random.default_rng(6)
        n = 100
        y = rng.integers(0, 2, n)
        X = np.column_stack([rng.normal(size=n), y + rng.normal(0, 0.01, n)])
        model = train(make_dataset(X, y), GbtParams(depth=1, rounds=10))
        imp = importance(model)
        assert imp["f1"] >= 0.99
        assert sum(imp.values()) == pytest.approx(1.0)

    def test_xor_informative_features_dominate(self):
        model = train(xor_dataset(), GbtParams(depth=2, rounds=50))
        imp = importance(model)
        assert imp.get("f0", 0.0) + imp.get("f1", 0.0) >= 0.9

    def test_totals_match_a_preorder_walk(self):
        data, weights = _weighted_data(15, n=300)
        model = train(data, GbtParams(depth=3, rounds=8, learning_rate=0.3), weights)
        totals = np.zeros(model.n_features)

        def visit(tree, node):
            if tree.feature[node] >= 0:
                totals[tree.feature[node]] += tree.gain[node]
                visit(tree, tree.left[node])
                visit(tree, tree.right[node])

        for tree in model.trees:
            visit(tree, 0)
        want = {name: t / totals.sum() for name, t in zip(data.column_names, totals) if t > 0}
        assert importance(model) == want

    def test_no_splits_empty(self):
        data = xor_dataset(n=40)
        model = train(data, GbtParams(depth=2, rounds=5, min_child_weight=1e6))
        assert importance(model) == {}
