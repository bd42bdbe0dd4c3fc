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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .errors import DegenerateLabels, InsufficientData, ParamError
from .gbt import GbtParams, SortedColumns, importance, predict_proba_matrix, presort, train
from .smoothing import final_label, majority_window_location, smooth, location_summary

# Defaults of evaluate, which the CLI's --seed and --top-n also take.
DEFAULT_SEED = 0
DEFAULT_TOP_N = 20


@dataclass
class FoldResult:
    """Outcome of one held-out participant."""

    participant: str
    truth: int
    window_indices: np.ndarray
    probabilities: np.ndarray
    predicted: list[int]
    smoothed: list[int]
    verdict: int
    location: str
    importance: dict[str, float]


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass
class MetricSet:
    accuracy: float
    per_class: dict[int, ClassMetrics]
    confusion: dict[str, int]  # tp/fp/tn/fn with class 1 as positive


@dataclass
class FeatureGroupStat:
    """Mann-Whitney comparison of per-participant feature means."""

    feature: str
    u_statistic: float
    p_value: float
    n_biased: int
    n_unbiased: int
    all_tied: bool


@dataclass
class EvalReport:
    n_participants: int
    baseline: float
    participant_metrics: MetricSet
    window_metrics: MetricSet
    importance_counts: dict[str, int]
    importance_reported: list[str]
    importance_top_n: int
    importance_threshold: float
    end_fraction: float | None
    location_counts: dict[str, int]
    group_stats: list[FeatureGroupStat]
    folds: list[FoldResult] = field(default_factory=list)


def lopo_folds(data: Dataset) -> list[tuple[np.ndarray, np.ndarray, str]]:
    """One (train_rows, test_rows, participant) triple per participant.

    Raises:
        InsufficientData: fewer than two participants.
    """
    participants = data.participants()
    if len(participants) < 2:
        raise InsufficientData("leave-one-participant-out needs >= 2 participants")
    folds = []
    for pid in participants:
        test = np.flatnonzero(data.participant_ids == pid)
        train_rows = np.flatnonzero(data.participant_ids != pid)
        assert not set(data.participant_ids[train_rows]) & {pid}  # no leakage
        folds.append((train_rows, test, pid))
    return folds


def oversample_weights(y: np.ndarray, seed: int) -> np.ndarray:
    """Integer row weights that balance the classes: every row weighs 1, and
    a minority-class row one more per time a seeded uniform draw (with
    replacement, one draw per missing row) picks it.

    Raises:
        DegenerateLabels: a single class in the data.
    """
    counts = {cls: int(np.sum(y == cls)) for cls in (0, 1)}
    if counts[0] == 0 or counts[1] == 0:
        raise DegenerateLabels("oversampling needs both classes present")
    weights = np.ones(y.size, dtype=np.int64)
    if counts[0] == counts[1]:
        return weights
    minority = 0 if counts[0] < counts[1] else 1
    deficit = abs(counts[0] - counts[1])
    pool = np.flatnonzero(y == minority)
    rng = np.random.default_rng(seed)
    extra = pool[rng.integers(0, pool.size, size=deficit)]
    return weights + np.bincount(extra, minlength=y.size)


def _metrics(truths: np.ndarray, predictions: np.ndarray) -> MetricSet:
    truths = np.asarray(truths, dtype=int)
    predictions = np.asarray(predictions, dtype=int)
    tp = int(np.sum((predictions == 1) & (truths == 1)))
    fp = int(np.sum((predictions == 1) & (truths == 0)))
    tn = int(np.sum((predictions == 0) & (truths == 0)))
    fn = int(np.sum((predictions == 0) & (truths == 1)))

    def prf(tp_: int, fp_: int, fn_: int) -> ClassMetrics:
        precision = tp_ / (tp_ + fp_) if tp_ + fp_ else 0.0
        recall = tp_ / (tp_ + fn_) if tp_ + fn_ else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return ClassMetrics(precision=precision, recall=recall, f1=f1)

    return MetricSet(
        accuracy=(tp + tn) / truths.size if truths.size else 0.0,
        per_class={1: prf(tp, fp, fn), 0: prf(tn, fn, fp)},
        confusion={"tp": tp, "fp": fp, "tn": tn, "fn": fn},
    )


def _run_fold(
    data: Dataset, sorted_columns: SortedColumns, params: GbtParams,
    train_rows: np.ndarray, test_rows: np.ndarray, pid: str, fold_seed: int,
) -> FoldResult:
    weights = np.zeros(data.n_rows, dtype=np.int64)
    weights[train_rows] = oversample_weights(data.y[train_rows], fold_seed)
    model = train(data, params, weights, sorted_columns)

    order = np.argsort(data.window_indices[test_rows], kind="stable")
    test_rows = test_rows[order]
    probs = predict_proba_matrix(model, data.X[test_rows])
    predicted = [int(p >= 0.5) for p in probs]
    smoothed = smooth(predicted)
    verdict = final_label(smoothed)
    location = majority_window_location(probs, verdict)
    return FoldResult(
        participant=pid,
        truth=int(data.y[test_rows[0]]),
        window_indices=data.window_indices[test_rows],
        probabilities=probs,
        predicted=predicted,
        smoothed=smoothed,
        verdict=verdict,
        location=location,
        importance=importance(model),
    )


def aggregate_importance(
    fold_importances: list[dict[str, float]],
    top_n: int,
    threshold: float | None = None,
) -> tuple[dict[str, int], list[str], float]:
    """Count, per feature, the folds where it ranks in the top_n by gain;
    report the features whose count exceeds the threshold (default: half
    the folds). Returns (counts, reported features, threshold applied)."""
    if not fold_importances:
        raise ValueError("no folds to aggregate")
    if threshold is None:
        threshold = len(fold_importances) / 2.0
    counts: dict[str, int] = {}
    for imp in fold_importances:
        ranked = sorted(imp.items(), key=lambda kv: (-kv[1], kv[0]))[:top_n]
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


def group_difference(data: Dataset) -> list[FeatureGroupStat]:
    """Per-feature Mann-Whitney test of per-participant mean values,
    biased vs unbiased participants."""
    participants = data.participants()
    labels = {pid: data.participant_label(pid) for pid in participants}
    biased = [p for p in participants if labels[p] == 1]
    unbiased = [p for p in participants if labels[p] == 0]
    if len(biased) < 2 or len(unbiased) < 2:
        raise InsufficientData("group statistics need >= 2 participants per group")

    rows_of = {pid: np.flatnonzero(data.participant_ids == pid) for pid in participants}
    stats = []
    for j, feature in enumerate(data.column_names):
        means: dict[str, float] = {}
        for pid in participants:
            col = data.X[rows_of[pid], j]
            col = col[~np.isnan(col)]
            if col.size:
                means[pid] = float(col.mean())
        xs = [means[p] for p in biased if p in means]
        ys = [means[p] for p in unbiased if p in means]
        if len(xs) < 2 or len(ys) < 2:
            stats.append(FeatureGroupStat(feature, math.nan, math.nan, len(xs), len(ys), False))
            continue
        u, p, tied = mann_whitney_u(xs, ys)
        stats.append(FeatureGroupStat(feature, u, p, len(xs), len(ys), tied))
    return stats


def evaluate(
    data: Dataset,
    model_params: GbtParams | None = None,
    seed: int = DEFAULT_SEED,
    top_n: int = DEFAULT_TOP_N,
    importance_threshold: float | None = None,
) -> EvalReport:
    """Full LOPO evaluation: per-fold oversample/train/predict/smooth, one
    fold after another in this process, then participant-level metrics
    against the majority-class baseline.

    Raises:
        ParamError: top_n below 1, a negative seed or a non-finite
            importance_threshold.
        InsufficientData: fewer than two participants in either class, so
            that some fold would train on one class.
    """
    if top_n < 1:
        raise ParamError(f"top_n must be >= 1, got {top_n}")
    if seed < 0:
        raise ParamError(f"seed must be >= 0, got {seed}")
    if importance_threshold is not None and not math.isfinite(importance_threshold):
        raise ParamError(f"importance_threshold must be finite, got {importance_threshold}")
    labels = [data.participant_label(pid) for pid in data.participants()]
    n_biased, n_unbiased = labels.count(1), labels.count(0)
    if n_biased < 2 or n_unbiased < 2:
        raise InsufficientData(
            f"evaluation needs >= 2 participants per class, got {n_biased} biased "
            f"and {n_unbiased} unbiased"
        )
    model_params = model_params or GbtParams()
    sorted_columns = presort(data.X)
    results = [
        _run_fold(data, sorted_columns, model_params, train_rows, test_rows, pid, seed + 1000 * i)
        for i, (train_rows, test_rows, pid) in enumerate(lopo_folds(data))
    ]

    truths = np.array([r.truth for r in results])
    verdicts = np.array([r.verdict for r in results])
    class_counts = {cls: int(np.sum(truths == cls)) for cls in (0, 1)}
    baseline = max(class_counts.values()) / truths.size

    window_truths = np.concatenate([[r.truth] * len(r.predicted) for r in results])
    window_preds = np.concatenate([r.predicted for r in results])

    counts, reported, threshold = aggregate_importance(
        [r.importance for r in results], top_n=top_n, threshold=importance_threshold
    )

    locations = [r.location for r in results]
    end_fraction = location_summary(locations, verdicts, truths)
    location_counts: dict[str, int] = {"start": 0, "middle": 0, "end": 0}
    for r in results:
        location_counts[r.location] += 1

    return EvalReport(
        n_participants=len(results),
        baseline=float(baseline),
        participant_metrics=_metrics(truths, verdicts),
        window_metrics=_metrics(window_truths, window_preds),
        importance_counts=counts,
        importance_reported=reported,
        importance_top_n=top_n,
        importance_threshold=float(threshold),
        end_fraction=end_fraction,
        location_counts=location_counts,
        group_stats=group_difference(data),
        folds=results,
    )
