"""Leave-one-participant-out evaluation with oversampling and smoothing.

Each fold holds out every window of one participant, balances the training
rows with integer row weights (each minority-class window weighs one more
for every time the seeded oversampling draw picks it), fits the boosted-tree
model, predicts the held-out window sequence, smooths it, and takes the
longest-run label as the participant verdict, located in the third of the
session where its mean window probability is highest. The folds run one after
another in one process, and the feature matrix is sorted once per
evaluation: every fold trains on the whole matrix, with the held-out
participant at weight 0, and filters that one presort. Every class needs two
participants, so that each fold trains on both classes. Reported metrics are
participant-level; window-level metrics are kept as diagnostics.

`evaluate` returns the report document itself: the dict that the CLI writes
to report.json, apart from its `meta` key. The folds, the class count and
the group statistics each code the participants with one `np.unique` over
the row ids, in sorted id order.
"""
from __future__ import annotations

import math

import numpy as np

from .dataset import Dataset
from .errors import PhysioBiasError
from .gbt import GbtParams, SortedColumns, importance, predict_proba_matrix, presort, train
from .params import DEFAULT_SEED
from .smoothing import final_label, majority_window_location, smooth, location_summary

# The paper reports the features that rank in the top 20 by gain in more
# than half of the folds.
TOP_N = 20


def _participants(data: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted participant ids, each one's label (that of its first row)
    and every row's code, its participant's index in the ids."""
    ids, first, codes = np.unique(data.participant_ids, return_index=True, return_inverse=True)
    return ids, data.y[first], codes


def lopo_folds(data: Dataset) -> list[tuple[np.ndarray, np.ndarray, str]]:
    """One (train_rows, test_rows, participant) triple per participant.

    Raises:
        PhysioBiasError: fewer than two participants.
    """
    ids, _, codes = _participants(data)
    if ids.size < 2:
        raise PhysioBiasError("leave-one-participant-out needs >= 2 participants")
    return [(np.flatnonzero(codes != k), np.flatnonzero(codes == k), pid)
            for k, pid in enumerate(ids)]


def oversample_weights(y: np.ndarray, seed: int) -> np.ndarray:
    """Integer row weights that balance the classes: every row weighs 1, and
    a minority-class row one more per time a seeded uniform draw (with
    replacement, one draw per missing row) picks it.

    Raises:
        PhysioBiasError: a single class in the data.
    """
    counts = {cls: int(np.sum(y == cls)) for cls in (0, 1)}
    if counts[0] == 0 or counts[1] == 0:
        raise PhysioBiasError("oversampling needs both classes present")
    weights = np.ones(y.size, dtype=np.int64)
    if counts[0] == counts[1]:
        return weights
    minority = 0 if counts[0] < counts[1] else 1
    deficit = abs(counts[0] - counts[1])
    pool = np.flatnonzero(y == minority)
    rng = np.random.default_rng(seed)
    extra = pool[rng.integers(0, pool.size, size=deficit)]
    return weights + np.bincount(extra, minlength=y.size)


def _metrics(truths: np.ndarray, predictions: np.ndarray) -> dict:
    """Accuracy, per-class precision/recall/f1 keyed "1" and "0", and the
    confusion counts with class 1 as positive."""
    truths = np.asarray(truths, dtype=int)
    predictions = np.asarray(predictions, dtype=int)
    tp = int(np.sum((predictions == 1) & (truths == 1)))
    fp = int(np.sum((predictions == 1) & (truths == 0)))
    tn = int(np.sum((predictions == 0) & (truths == 0)))
    fn = int(np.sum((predictions == 0) & (truths == 1)))

    def prf(tp_: int, fp_: int, fn_: int) -> dict:
        precision = tp_ / (tp_ + fp_) if tp_ + fp_ else 0.0
        recall = tp_ / (tp_ + fn_) if tp_ + fn_ else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return {"precision": precision, "recall": recall, "f1": f1}

    return {
        "accuracy": (tp + tn) / truths.size if truths.size else 0.0,
        "per_class": {"1": prf(tp, fp, fn), "0": prf(tn, fn, fp)},
        "confusion": {"tp": tp, "fp": fp, "tn": tn, "fn": fn},
    }


def _run_fold(
    data: Dataset, sorted_columns: SortedColumns, params: GbtParams,
    train_rows: np.ndarray, test_rows: np.ndarray, pid: str, fold_seed: int,
) -> tuple[dict, dict[str, float]]:
    """The held-out participant's report summary, with the windows in
    window-index order, and the fold model's gain per feature."""
    weights = np.zeros(data.n_rows, dtype=np.int64)
    weights[train_rows] = oversample_weights(data.y[train_rows], fold_seed)
    model = train(data, params, weights, sorted_columns)

    order = np.argsort(data.window_indices[test_rows], kind="stable")
    test_rows = test_rows[order]
    probs = predict_proba_matrix(model, data.X[test_rows])
    predicted = [int(p >= 0.5) for p in probs]
    smoothed = smooth(predicted)
    verdict = final_label(smoothed)
    summary = {
        "participant": pid,
        "truth": int(data.y[test_rows[0]]),
        "verdict": verdict,
        "location": majority_window_location(probs, verdict),
        "n_windows": len(predicted),
        "predicted": "".join(map(str, predicted)),
        "smoothed": "".join(map(str, smoothed)),
        "mean_probability": float(np.mean(probs)),
    }
    return summary, importance(model)


def aggregate_importance(fold_importances: list[dict[str, float]]) -> tuple[dict[str, int], list[str], float]:
    """Count, per feature, the folds where it ranks in the top TOP_N by gain;
    report the features whose count exceeds half the folds, the paper's
    rule. Returns (counts, reported features, threshold applied)."""
    if not fold_importances:
        raise ValueError("no folds to aggregate")
    threshold = len(fold_importances) / 2.0
    counts: dict[str, int] = {}
    for imp in fold_importances:
        ranked = sorted(imp.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_N]
        for name, _ in ranked:
            counts[name] = counts.get(name, 0) + 1
    counts = dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
    reported = [name for name, c in counts.items() if c > threshold]
    return counts, reported, threshold


def mann_whitney_u(x, y) -> tuple[float, float, bool]:
    """Two-sided Mann-Whitney U via the tie-corrected normal approximation
    (with continuity correction). Returns (U of the first sample, p, all_tied)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n1, n2 = x.size, y.size
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be non-empty")
    pooled = np.concatenate([x, y])
    n = n1 + n2

    # Each block of tied values, from sorted position i to j, shares the
    # average rank 0.5 * (i + j) + 1.
    order = np.argsort(pooled, kind="stable")
    sorted_vals = pooled[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    counts = np.diff(np.r_[starts, n])
    ranks = np.empty(n)
    ranks[order] = np.repeat(0.5 * (2 * starts + counts - 1) + 1.0, counts)
    tie_term = float(np.sum(counts ** 3 - counts))

    r1 = float(ranks[:n1].sum())
    u1 = r1 - n1 * (n1 + 1) / 2.0
    mean_u = n1 * n2 / 2.0
    var_u = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var_u <= 0:
        return u1, 1.0, True
    z = u1 - mean_u
    z -= 0.5 * np.sign(z)  # continuity correction
    z /= math.sqrt(var_u)
    p = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
    return u1, p, False


def group_difference(data: Dataset) -> list[dict]:
    """Per-feature Mann-Whitney test of per-participant mean values,
    biased vs unbiased participants: one record per feature, with
    `u_statistic` and `p_value` NaN when a group has fewer than two
    participants with a value."""
    ids, labels, codes = _participants(data)
    if np.sum(labels == 1) < 2 or np.sum(labels == 0) < 2:
        raise PhysioBiasError("group statistics need >= 2 participants per group")

    # means[k, j]: participant k's mean of feature j over its non-NaN windows.
    means = np.full((ids.size, len(data.column_names)), np.nan)
    for k in range(ids.size):
        block = data.X[codes == k]
        for j in range(block.shape[1]):
            col = block[:, j]
            col = col[~np.isnan(col)]
            if col.size:
                means[k, j] = col.mean()
    stats = []
    for j, feature in enumerate(data.column_names):
        xs, ys = means[labels == 1, j], means[labels == 0, j]
        xs, ys = xs[~np.isnan(xs)], ys[~np.isnan(ys)]
        if xs.size < 2 or ys.size < 2:
            u, p, tied = math.nan, math.nan, False
        else:
            u, p, tied = mann_whitney_u(xs, ys)
        stats.append({"feature": feature, "u_statistic": u, "p_value": p,
                      "n_biased": xs.size, "n_unbiased": ys.size, "all_tied": tied})
    return stats


def evaluate(
    data: Dataset,
    model_params: GbtParams | None = None,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Full LOPO evaluation: per-fold oversample/train/predict/smooth, one
    fold after another in this process, then participant-level metrics
    against the majority-class baseline and the features that
    aggregate_importance reports. Returns the report document: plain JSON
    values, per-class metrics keyed "1" and "0", one summary per fold.

    Raises:
        PhysioBiasError: a negative seed, or fewer than two participants in
            either class, so that some fold would train on one class.
    """
    if seed < 0:
        raise PhysioBiasError(f"seed must be >= 0, got {seed}")
    _, labels, _ = _participants(data)
    n_biased, n_unbiased = int(np.sum(labels == 1)), int(np.sum(labels == 0))
    if n_biased < 2 or n_unbiased < 2:
        raise PhysioBiasError(
            f"evaluation needs >= 2 participants per class, got {n_biased} biased "
            f"and {n_unbiased} unbiased"
        )
    model_params = model_params or GbtParams()
    sorted_columns = presort(data.X)
    results = [
        _run_fold(data, sorted_columns, model_params, train_rows, test_rows, pid, seed + 1000 * i)
        for i, (train_rows, test_rows, pid) in enumerate(lopo_folds(data))
    ]
    folds = [summary for summary, _ in results]

    truths = [f["truth"] for f in folds]
    verdicts = [f["verdict"] for f in folds]
    window_truths = np.repeat(truths, [f["n_windows"] for f in folds])
    window_preds = [int(c) for f in folds for c in f["predicted"]]
    counts, reported, threshold = aggregate_importance([gains for _, gains in results])
    location_counts = {"start": 0, "middle": 0, "end": 0}
    for f in folds:
        location_counts[f["location"]] += 1

    return {
        "n_participants": len(folds),
        "baseline": max(n_biased, n_unbiased) / len(folds),
        "participant_metrics": _metrics(truths, verdicts),
        "window_metrics": _metrics(window_truths, window_preds),
        "importance_counts": counts,
        "importance_reported": reported,
        "importance_top_n": TOP_N,
        "importance_threshold": threshold,
        "end_fraction": location_summary([f["location"] for f in folds], verdicts, truths),
        "location_counts": location_counts,
        "group_stats": group_difference(data),
        "folds": folds,
    }
