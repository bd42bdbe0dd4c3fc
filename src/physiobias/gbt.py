"""Gradient-boosted decision trees for binary classification, from scratch.

Each round fits one depth-limited regression tree to the first- and
second-order gradients of the logistic loss. Split quality is the standard
second-order gain

    0.5 * ( GL^2/(HL+lam) + GR^2/(HR+lam) - (GL+GR)^2/(HL+HR+lam) )

with candidate thresholds at midpoints between consecutive distinct sorted
values (exact greedy). Rows with a missing value follow the split's default
branch, chosen to maximize gain. Ties break deterministically: lowest
feature index, then lowest threshold, then default-left.

The search is the exact pre-sorted method (Chen & Guestrin, KDD 2016):
each column of a feature matrix is argsorted once (`presort`), a fit keeps
the rows it trains on, and each node filters its parent's sorted order by
the split, so no node sorts. Rows carry integer weights that multiply their
gradients: a row of weight k splits like k copies of itself, and a row of
weight 0 like no row at all. Every round fits every row of nonzero weight,
so training draws no random numbers and a fit is deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dataset import Dataset
from .errors import PhysioBiasError
from .params import GbtParams


class Tree(NamedTuple):
    """One fitted tree as per-node arrays in pre-order, the root at node 0.

    A leaf has feature -1 and is its own left and right child. Every node
    keeps its Newton step in weight; prediction reads it at the leaves."""

    feature: np.ndarray       # (nodes,) int, -1 at a leaf
    threshold: np.ndarray     # (nodes,) float; v < threshold goes left
    missing_left: np.ndarray  # (nodes,) bool, the branch of a missing value
    gain: np.ndarray          # (nodes,) float, 0 at a leaf
    weight: np.ndarray        # (nodes,) float
    left: np.ndarray          # (nodes,) int child index
    right: np.ndarray         # (nodes,) int child index


@dataclass
class TrainedModel:
    trees: list[Tree]
    base_score: float              # log-odds of the training prior
    column_names: list[str]
    params: GbtParams
    train_losses: list[float] = field(default_factory=list)

    @property
    def n_features(self) -> int:
        return len(self.column_names)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _log_loss(y: np.ndarray, p: np.ndarray, w: np.ndarray) -> float:
    """Mean log loss over rows counted w times each."""
    p = np.clip(p, 1e-15, 1.0 - 1e-15)
    return float(-(w @ (y * np.log(p) + (1.0 - y) * np.log(1.0 - p))) / w.sum())


@dataclass
class _Split:
    feature: int
    threshold: float
    missing_left: bool
    gain: float


class SortedColumns(NamedTuple):
    """Rows of a feature matrix in ascending order of each column, NaN last.

    Laid out (d, m): line j holds column j, so prefix sums and argmax run
    along contiguous memory. Every line lists the same m rows.
    """

    rows: np.ndarray    # (d, m) row indices into X
    values: np.ndarray  # (d, m) values[j, k] == X[rows[j, k], j]


def presort(X: np.ndarray) -> SortedColumns:
    """Sort every column of X once; folds and nodes filter this order."""
    XT = np.ascontiguousarray(X.T)
    rows = np.argsort(XT, axis=1)                        # NaNs sort last
    return SortedColumns(rows, np.take_along_axis(XT, rows, axis=1))


def _take(cols: SortedColumns, mask: np.ndarray, m: int) -> SortedColumns:
    """The m entries per line where mask (shaped like cols) holds, in order."""
    at = np.flatnonzero(mask)        # one scan, then two cheap gathers
    d = cols.rows.shape[0]
    return SortedColumns(cols.rows.take(at).reshape(d, m), cols.values.take(at).reshape(d, m))


def _variant_gain(
    gl: np.ndarray,
    hl: np.ndarray,
    g_tot: float,
    h_tot: float,
    parent: float,
    valid: np.ndarray,
    reg_lambda: float,
    min_child_weight: float,
) -> np.ndarray:
    """Gain of every candidate, -inf where it is invalid or a child would
    weigh less than min_child_weight. Computed in place on few temporaries."""
    hr = np.subtract(h_tot, hl)
    bad = hr < min_child_weight
    bad |= hl < min_child_weight
    bad |= ~valid
    right = np.subtract(g_tot, gl)
    right *= right
    hr += reg_lambda
    right /= hr                                          # GR^2 / (HR + lam)
    gain = np.multiply(gl, gl)
    gain /= np.add(hl, reg_lambda, out=hr)               # GL^2 / (HL + lam)
    gain += right
    gain -= parent
    gain *= 0.5
    np.putmask(gain, bad, -np.inf)
    return gain


# Candidates per block of columns that _search scores at once: small enough
# for the block's temporaries to stay in cache, large enough to amortize the
# per-block calls.
_BLOCK = 1 << 15


def _block_gains(
    rows: np.ndarray,
    sv: np.ndarray,
    gw: np.ndarray,
    hw: np.ndarray,
    g_tot: float,
    h_tot: float,
    parent: float,
    reg_lambda: float,
    min_child_weight: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Gains of the splits between sorted positions i and i+1 of a block of
    presorted columns, with the default branch that goes with each."""
    sg = gw.take(rows)
    sh = hw.take(rows)
    # Missing values sort last; zero their gradients so that the prefix
    # sums stop at the last finite value.
    cols_nan = np.flatnonzero(np.isnan(sv[:, -1]))
    if cols_nan.size:
        missing = np.isnan(sv[cols_nan])
        sg[cols_nan] = np.where(missing, 0.0, sg[cols_nan])
        sh[cols_nan] = np.where(missing, 0.0, sh[cols_nan])
    cg = np.cumsum(sg, axis=1)
    ch = np.cumsum(sh, axis=1)

    # A split is valid when both neighbours are finite and distinct (NaN
    # compares false).
    valid = sv[:, 1:] > sv[:, :-1]
    gl_base = cg[:, :-1]
    hl_base = ch[:, :-1]
    gains = _variant_gain(
        gl_base, hl_base, g_tot, h_tot, parent, valid, reg_lambda, min_child_weight
    )
    # Only columns holding a missing value among the node's rows get the
    # variant that routes missing rows left (ties default left). The others
    # behave identically either way, so their default stays left.
    missing_left = np.ones(gains.shape, dtype=bool)
    if cols_nan.size:
        gain_left = _variant_gain(
            gl_base[cols_nan] + (g_tot - cg[cols_nan, -1:]),
            hl_base[cols_nan] + (h_tot - ch[cols_nan, -1:]),
            g_tot, h_tot, parent, valid[cols_nan], reg_lambda, min_child_weight,
        )
        right = gains[cols_nan]
        left_wins = gain_left >= right
        gains[cols_nan] = np.where(left_wins, gain_left, right)
        missing_left[cols_nan] = left_wins
    return gains, missing_left


# A child's hessian sum plus reg_lambda may be 0 or tiny: a masked NaN gain
# does not count and a non-finite best ends the search, so numpy need not warn.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _search(
    cols: SortedColumns,
    gw: np.ndarray,
    hw: np.ndarray,
    g_tot: float,
    h_tot: float,
    reg_lambda: float,
    min_child_weight: float,
) -> _Split | None:
    """Exact greedy split search over a node's presorted columns, vectorized
    over blocks of columns. gw and hw are the weighted gradients of every
    row of X; g_tot and h_tot their sums over the node.

    The order within a run of tied values is arbitrary, which is safe:
    candidates sit only at boundaries between distinct values, where prefix
    sums do not depend on the order within a tie block.
    """
    d, m = cols.rows.shape
    if m < 2:
        return None
    parent = g_tot * g_tot / (h_tot + reg_lambda)
    step = max(1, _BLOCK // m)
    best_gain, best = -np.inf, (0, 0, True)
    for lo in range(0, d, step):
        gains, missing_left = _block_gains(
            cols.rows[lo:lo + step], cols.values[lo:lo + step], gw, hw,
            g_tot, h_tot, parent, reg_lambda, min_child_weight,
        )
        # First maximum in (feature, threshold) order for deterministic ties.
        f, i = divmod(int(np.argmax(gains)), m - 1)
        gain = float(gains[f, i])
        if np.isnan(gain):
            return None
        if gain > best_gain:
            best_gain, best = gain, (lo + f, i, bool(missing_left[f, i]))
    if not np.isfinite(best_gain) or best_gain <= 0.0:
        return None
    f, i, missing_left = best
    return _Split(
        feature=f,
        # Halved before the sum, so that the midpoint of two values near the
        # float maximum does not overflow to inf.
        threshold=float(0.5 * cols.values[f, i + 1] + 0.5 * cols.values[f, i]),
        missing_left=missing_left,
        gain=best_gain,
    )


def _build_tree(
    X: np.ndarray,
    gw: np.ndarray,
    hw: np.ndarray,
    members: np.ndarray,
    cols: SortedColumns,
    params: GbtParams,
) -> Tree:
    """Grow one tree over its member rows (ascending), presorted in cols.

    Nodes are numbered in pre-order from an explicit stack, so no depth
    exhausts the interpreter's recursion limit: a split node's left child is
    the next node, and its right child, popped after the left subtree, writes
    its own index into the parent. cols is None for a node at full depth,
    which never searches. A node whose hessian sum plus reg_lambda is 0
    (every row saturated, no regularization) has no Newton step; it is a
    leaf of weight 0.
    """
    nodes: list[list] = []  # feature, threshold, missing_left, gain, weight, left, right
    # (members, cols, depth, the parent whose right child this node is, or -1)
    stack = [(members, cols, 0, -1)]
    while stack:
        members, cols, depth, parent = stack.pop()
        at = len(nodes)
        if parent >= 0:
            nodes[parent][6] = at
        g_tot = float(gw[members].sum())
        h_tot = float(hw[members].sum())
        denominator = h_tot + params.reg_lambda
        nodes.append([-1, 0.0, True, 0.0, -g_tot / denominator if denominator else 0.0, at, at])
        if depth >= params.depth or members.size < 2 or not denominator:
            continue
        split = _search(cols, gw, hw, g_tot, h_tot, params.reg_lambda, params.min_child_weight)
        if split is None:
            continue
        v = X[members, split.feature]
        go_left = np.where(np.isnan(v), split.missing_left, v < split.threshold)
        left, right = members[go_left], members[~go_left]
        left_cols = right_cols = None
        if depth + 1 < params.depth:
            on_left = np.zeros(X.shape[0], dtype=bool)
            on_left[left] = True
            mask = on_left[cols.rows]
            left_cols = _take(cols, mask, left.size)
            right_cols = _take(cols, ~mask, right.size)
        nodes[at][:4] = split.feature, split.threshold, split.missing_left, split.gain
        nodes[at][5] = at + 1
        stack.append((right, right_cols, depth + 1, at))
        stack.append((left, left_cols, depth + 1, -1))
    return Tree(*map(np.array, zip(*nodes)))


def _tree_values(tree: Tree, X: np.ndarray) -> np.ndarray:
    """The leaf weight of every row of X. All rows descend one level at a
    time until each sits on a leaf, which is its own child."""
    rows = np.arange(X.shape[0])
    node = np.zeros(X.shape[0], dtype=np.intp)
    feature = tree.feature[node]
    while (feature >= 0).any():
        v = X[rows, feature]
        go_left = np.where(np.isnan(v), tree.missing_left[node], v < tree.threshold[node])
        node = np.where(go_left, tree.left[node], tree.right[node])
        feature = tree.feature[node]
    return tree.weight[node]


def train(
    data: Dataset,
    params: GbtParams | None = None,
    weights: np.ndarray | None = None,
    sorted_columns: SortedColumns | None = None,
) -> TrainedModel:
    """Fit the boosted ensemble on a Dataset.

    weights: a non-negative integer per row (default 1). A row of weight k
    counts as k copies of itself, and a row of weight 0 takes no part.
    sorted_columns: presort(data.X), for callers that fit the same matrix
    many times; sorted here when not given.

    Raises:
        PhysioBiasError: only one class among the weighted rows.
    """
    params = params or GbtParams()
    X, y = data.X, data.y.astype(float)
    n = X.shape[0]
    w = np.ones(n, dtype=np.int64) if weights is None else np.asarray(weights, dtype=np.int64)
    members = np.flatnonzero(w)
    if np.unique(data.y[members]).size < 2:
        raise PhysioBiasError("training data must contain both classes")
    if sorted_columns is None:
        sorted_columns = presort(X)
    if members.size < n:
        sorted_columns = _take(sorted_columns, (w > 0)[sorted_columns.rows], members.size)

    prior = float(w @ y) / float(w.sum())
    base_score = float(np.log(prior / (1.0 - prior)))
    margin = np.full(n, base_score)

    trees: list[Tree] = []
    losses: list[float] = []
    for _ in range(params.rounds):
        p = _sigmoid(margin)
        g = p - y
        h = p * (1.0 - p)
        tree = _build_tree(X, w * g, w * h, members, sorted_columns, params)
        trees.append(tree)
        margin = margin + params.learning_rate * _tree_values(tree, X)
        losses.append(_log_loss(y, _sigmoid(margin), w))

    return TrainedModel(
        trees=trees,
        base_score=base_score,
        column_names=list(data.column_names),
        params=params,
        train_losses=losses,
    )


def predict_margin(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Raw additive score for a matrix of rows."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise PhysioBiasError(
            f"expected rows of width {model.n_features}, got shape {X.shape}"
        )
    margin = np.full(X.shape[0], model.base_score)
    for tree in model.trees:
        margin += model.params.learning_rate * _tree_values(tree, X)
    return margin


def predict_proba_matrix(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    return _sigmoid(predict_margin(model, X))


def importance(model: TrainedModel) -> dict[str, float]:
    """Total split gain per feature, normalized to sum 1. Empty when the
    ensemble never split."""
    if not model.trees:
        return {}
    feature = np.concatenate([t.feature for t in model.trees])
    gain = np.concatenate([t.gain for t in model.trees])
    split = feature >= 0
    # bincount adds in node order, as a pre-order walk of the trees would.
    totals = np.bincount(feature[split], weights=gain[split], minlength=model.n_features)
    total = totals.sum()
    if total <= 0:
        return {}
    return {
        model.column_names[i]: float(totals[i] / total)
        for i in np.flatnonzero(totals > 0)
    }
