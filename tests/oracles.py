"""Independent brute-force oracles used to pin expected values.

Everything here is written from the feature definitions directly - plain
loops, explicit sorting, matrix DFTs - and deliberately shares no code with
the package implementations it checks.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


def o_mean(xs) -> float:
    return sum(xs) / len(xs)


def o_quantile(xs, q: float) -> float:
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(math.floor(pos))
    if lo == len(s) - 1:
        return float(s[lo])
    frac = pos - lo
    return float(s[lo] + (s[lo + 1] - s[lo]) * frac)


def o_stat_features(xs, rate: float) -> dict:
    m = o_mean(xs)
    var = sum((v - m) ** 2 for v in xs) / len(xs)
    dist = sum(math.sqrt(1.0 + (xs[i + 1] - xs[i]) ** 2) for i in range(len(xs) - 1))
    return {
        "max": max(xs),
        "min": min(xs),
        "median": o_quantile(xs, 0.5),
        "mean": m,
        "std": math.sqrt(var),
        "var": var,
        "interq_range": o_quantile(xs, 0.75) - o_quantile(xs, 0.25),
        "mean_abs_dev": sum(abs(v - m) for v in xs) / len(xs),
        "distance": dist,
    }


def o_power_spectrum_max(xs, rate: float) -> float:
    """Max of |DFT|^2/(N*rate) over non-DC bins, via the full DFT matrix."""
    x = np.asarray(xs, dtype=float)
    n = x.size
    k = np.arange(n)
    dft = np.exp(-2j * np.pi * np.outer(k, k) / n) @ x
    psd = (dft.real ** 2 + dft.imag ** 2) / (n * rate)
    return float(psd[1:].max())


def o_peaks(xs) -> list[int]:
    return [
        i for i in range(1, len(xs) - 1)
        if xs[i] > xs[i - 1] and xs[i] > xs[i + 1]
    ]


def o_extra_features(xs, rate: float) -> dict:
    m = o_mean(xs)
    m2 = sum((v - m) ** 2 for v in xs) / len(xs)
    if m2 == 0:
        kurt = float("nan")
        skew = float("nan")
    else:
        kurt = (sum((v - m) ** 4 for v in xs) / len(xs)) / m2 ** 2 - 3.0
        skew = (sum((v - m) ** 3 for v in xs) / len(xs)) / m2 ** 1.5
    return {
        "rms": math.sqrt(sum(v * v for v in xs) / len(xs)),
        "kurtosis": kurt,
        "skewness": skew,
        "zero_cross": float(sum(1 for i in range(len(xs) - 1) if xs[i] * xs[i + 1] < 0)),
        "power_spec": o_power_spectrum_max(xs, rate),
        "num_peaks": float(len(o_peaks(xs))),
    }


def o_eda_extra_features(xs, rate: float) -> dict:
    auc = sum((xs[i] + xs[i + 1]) / 2.0 for i in range(len(xs) - 1)) / rate
    peaks = o_peaks(xs)
    return {
        "auc": auc,
        "max_peak": max(xs[i] for i in peaks) if peaks else float("nan"),
    }


def o_detect_beats(xs, rate: float):
    """(peak indices, gated RR in ms) per the stated detection rules."""
    m = o_mean(xs)
    threshold = m + 0.3 * (max(xs) - m)
    accepted: list[int] = []
    for i in o_peaks(xs):
        if xs[i] > threshold:
            if not accepted or (i - accepted[-1]) / rate >= 0.3:
                accepted.append(i)
    if len(accepted) < 2:
        return accepted, []
    rr = [
        (b - a) / rate * 1000.0
        for a, b in zip(accepted[:-1], accepted[1:])
    ]
    rr = [v for v in rr if 300.0 <= v <= 2000.0]
    return accepted, rr


def o_breathing_rate(intervals) -> float:
    fs = 4.0
    beat_times = []
    acc = 0.0
    for v in intervals:
        acc += v / 1000.0
        beat_times.append(acc)
    span = beat_times[-1] - beat_times[0]
    if span <= 0:
        return float("nan")
    n_grid = int(math.floor(span * fs)) + 1
    if n_grid < 4:
        return float("nan")

    def interp(t: float) -> float:
        if t <= beat_times[0]:
            return intervals[0]
        if t >= beat_times[-1]:
            return intervals[-1]
        for j in range(len(beat_times) - 1):
            if beat_times[j] <= t <= beat_times[j + 1]:
                w = (t - beat_times[j]) / (beat_times[j + 1] - beat_times[j])
                return intervals[j] * (1 - w) + intervals[j + 1] * w
        raise AssertionError

    grid = [beat_times[0] + i / fs for i in range(n_grid)]
    x = [interp(t) for t in grid]
    mu = o_mean(x)
    x = [v - mu for v in x]
    best_power, best_freq = None, float("nan")
    for k in range(n_grid // 2 + 1):
        freq = k * fs / n_grid
        if not (0.1 <= freq <= 0.5):
            continue
        re = sum(x[j] * math.cos(-2 * math.pi * k * j / n_grid) for j in range(n_grid))
        im = sum(x[j] * math.sin(-2 * math.pi * k * j / n_grid) for j in range(n_grid))
        power = (re * re + im * im) / (n_grid * fs)
        if best_power is None or power > best_power:
            best_power, best_freq = power, freq
    if best_power is None or best_power == 0.0:
        return float("nan")
    return 60.0 * best_freq


def o_hrv_features(intervals, peak_values) -> dict:
    out = {
        name: float("nan")
        for name in (
            "mean_peak", "sdnn", "sdsd", "rmssd", "pnn20", "pnn50",
            "hr_mad", "sd1_sd2", "breathingrate",
        )
    }
    if len(peak_values) >= 1:
        out["mean_peak"] = o_mean(peak_values)
    if len(intervals) >= 2:
        m = o_mean(intervals)
        out["sdnn"] = math.sqrt(sum((v - m) ** 2 for v in intervals) / len(intervals))
        med = o_quantile(intervals, 0.5)
        out["hr_mad"] = o_quantile([abs(v - med) for v in intervals], 0.5)
    if len(intervals) >= 3:
        d = [b - a for a, b in zip(intervals[:-1], intervals[1:])]
        dm = o_mean(d)
        sdsd = math.sqrt(sum((v - dm) ** 2 for v in d) / len(d))
        rmssd = math.sqrt(sum(v * v for v in d) / len(d))
        out["sdsd"] = sdsd
        out["rmssd"] = rmssd
        out["pnn20"] = sum(1 for v in d if abs(v) > 20.0) / len(d)
        out["pnn50"] = sum(1 for v in d if abs(v) > 50.0) / len(d)
        sd1 = rmssd / math.sqrt(2.0)
        sd2 = math.sqrt(max(0.0, 2.0 * out["sdnn"] ** 2 - 0.5 * sdsd ** 2))
        out["sd1_sd2"] = sd1 / sd2 if sd2 > 0 else float("nan")
    if len(intervals) >= 4:
        out["breathingrate"] = o_breathing_rate(list(intervals))
    return out


def o_best_split(X, g, h, rows, reg_lambda: float, min_child_weight: float):
    """Exhaustive scan over features, midpoints and both default branches.

    Returns (gain, feature, threshold, missing_left) or None. Ties prefer
    lower feature, then lower threshold, then default-left.
    """
    X = np.asarray(X, dtype=float)
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    best = None
    g_tot = float(g[rows].sum())
    h_tot = float(h[rows].sum())
    parent = g_tot * g_tot / (h_tot + reg_lambda)
    for f in range(X.shape[1]):
        v = X[rows, f]
        missing = np.isnan(v)
        g_miss = float(g[rows][missing].sum())
        h_miss = float(h[rows][missing].sum())
        values = np.unique(v[~missing])
        for a, b in zip(values[:-1], values[1:]):
            threshold = float(0.5 * (a + b))
            below = ~missing & (v < threshold)
            gl0 = float(g[rows][below].sum())
            hl0 = float(h[rows][below].sum())
            for missing_left in (True, False):
                gl = gl0 + (g_miss if missing_left else 0.0)
                hl = hl0 + (h_miss if missing_left else 0.0)
                gr, hr = g_tot - gl, h_tot - hl
                if hl < min_child_weight or hr < min_child_weight:
                    continue
                gain = 0.5 * (
                    gl * gl / (hl + reg_lambda) + gr * gr / (hr + reg_lambda) - parent
                )
                cand = (gain, f, threshold, missing_left)
                if best is None or gain > best[0] + 1e-12:
                    best = cand
                elif abs(gain - best[0]) <= 1e-12:
                    if (f, threshold, not missing_left) < (best[1], best[2], not best[3]):
                        best = cand
    if best is None or best[0] <= 0.0:
        return None
    return best


class _ORun(NamedTuple):
    label: int
    start: int
    length: int


def _o_runs(labels) -> list[_ORun]:
    out = []
    start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[start]:
            out.append(_ORun(int(labels[start]), start, i - start))
            start = i
    return out


def _o_format_runs(rs) -> str:
    return " ".join(f"{r.label}x{r.length}" for r in rs)


def o_smooth_with_trace(labels) -> tuple[list[int], list[str]]:
    """smoothing.smooth_with_trace merge by merge: after every merge it
    re-derives all runs and looks for the next run of length k from the
    merge point on, so a pass costs O(runs x n)."""
    current = [int(v) for v in labels]
    original = _o_runs(current)
    original_mean = len(current) / len(original)
    trace = [f"original: {_o_format_runs(original)}"]

    k = 0
    while True:
        k += 1
        rs = _o_runs(current)
        if len(rs) <= 2:
            break
        if all(r.length > original_mean for r in rs):
            break
        if k > max(r.length for r in rs):
            break

        pos = 0
        while True:
            rs = _o_runs(current)
            target = next((r for r in rs if r.length == k and r.start >= pos), None)
            if target is None:
                break
            idx = rs.index(target)
            left = rs[idx - 1] if idx > 0 else None
            right = rs[idx + 1] if idx < len(rs) - 1 else None
            if left is not None and right is not None:
                if left.label == right.label:
                    fill = left.label
                else:
                    pos = target.start + target.length  # flanks disagree: skip
                    continue
            elif left is not None or right is not None:
                fill = (left or right).label
            else:
                break  # single run spans the sequence
            current[target.start:target.start + target.length] = [fill] * target.length
            pos = target.start  # merged run grew past length k; scan onward
        trace.append(f"pass {k}: {_o_format_runs(_o_runs(current))}")
    return current, trace


def o_mann_whitney_exact_p(x, y) -> float:
    """Exact two-sided p over all group assignments (small n only)."""
    from itertools import combinations

    pooled = list(x) + list(y)
    n1 = len(x)

    def u_stat(indices: tuple[int, ...]) -> float:
        chosen = set(indices)
        xs = [pooled[i] for i in indices]
        ys = [pooled[i] for i in range(len(pooled)) if i not in chosen]
        return sum(
            1.0 if a > b else (0.5 if a == b else 0.0) for a in xs for b in ys
        )

    observed = u_stat(tuple(range(n1)))
    values = [u_stat(c) for c in combinations(range(len(pooled)), n1)]
    lo = sum(1 for v in values if v <= observed + 1e-12) / len(values)
    hi = sum(1 for v in values if v >= observed - 1e-12) / len(values)
    return min(1.0, 2.0 * min(lo, hi))


def o_mann_whitney_u(x, y) -> tuple[float, float, bool]:
    """Tie-corrected normal-approximation Mann-Whitney test, ranking tie
    runs one at a time: (U of the first sample, two-sided p, all_tied)."""
    pooled = [float(v) for v in x] + [float(v) for v in y]
    n1, n2 = len(x), len(y)
    n = n1 + n2
    order = sorted(range(n), key=lambda k: pooled[k])
    ranks = [0.0] * n
    tie_term = 0.0
    i = 0
    while i < n:
        j = i
        while j + 1 < n and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        for k in order[i:j + 1]:
            ranks[k] = 0.5 * (i + j) + 1.0
        tie_term += (j - i + 1) ** 3 - (j - i + 1)
        i = j + 1
    u1 = float(np.sum(ranks[:n1])) - n1 * (n1 + 1) / 2.0
    var_u = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var_u <= 0:
        return u1, 1.0, True
    z = u1 - n1 * n2 / 2.0
    z -= 0.5 * np.sign(z)
    z /= math.sqrt(var_u)
    return u1, min(1.0, math.erfc(abs(z) / math.sqrt(2.0))), False


def o_spline_basis(n: int, rate: float, knot_spacing: float):
    """Reference tonic basis: scipy's `BSpline.design_matrix` of the clamped
    cubic spline with knots every knot_spacing seconds (the last segment
    stretched to the end) on the grid of n samples at rate Hz."""
    from scipy.interpolate import BSpline

    t = np.arange(n) / rate
    n_seg = max(1, int(np.floor(float(t[-1]) / knot_spacing + 1e-9)))
    inner = np.linspace(0.0, float(t[-1]), n_seg + 1)
    knots = np.concatenate([np.repeat(inner[0], 3), inner, np.repeat(inner[-1], 3)])
    return BSpline.design_matrix(t, knots, 3)


def o_decompose_dense(
    y, rate: float, tau0: float = 2.0, tau1: float = 0.7, knot_spacing: float = 10.0,
    alpha: float = 8e-4, gamma: float = 1e-2, tol: float = 1e-6, max_iter: int = 5000,
    kernel_seconds: float = 40.0,
) -> dict:
    """Reference EDA deconvolution: the accelerated proximal-gradient solver
    on the full (r, c, d) system with a dense spline basis, the residual
    recomputed wherever it is needed (three convolutions per step), a step
    from 60 power iterations and a stop on a relative objective change of
    tol. Same model and descent safeguard as eda.decompose, which solves the
    reduced problem in r and stops on a KKT measure instead."""
    y = np.asarray(y, dtype=float)
    n = y.size
    klen = min(n, int(round(kernel_seconds * rate)))
    tk = np.arange(klen) / rate
    h = np.exp(-tk / tau0) - np.exp(-tk / tau1)
    h = h / h.max()

    t = np.arange(n) / rate
    B = o_spline_basis(n, rate, knot_spacing).toarray()
    D = np.column_stack([t / max(t[-1], 1.0), np.ones(n)])
    m, q = B.shape[1], D.shape[1]

    def predict(r, c, d):
        return np.convolve(r, h)[:n] + B @ c + D @ d

    def objective(r, c, d):
        e = predict(r, c, d) - y
        return float(0.5 * e @ e + alpha * r.sum() + 0.5 * gamma * c @ c)

    rng = np.random.default_rng(12345)
    x = rng.standard_normal(n + m + q)
    x /= np.linalg.norm(x)
    lam = 1.0
    for _ in range(60):
        fit = predict(x[:n], x[n:n + m], x[n + m:])
        nxt = np.concatenate([
            np.convolve(fit[::-1], h)[:n][::-1], B.T @ fit + gamma * x[n:n + m], D.T @ fit,
        ])
        lam = float(np.linalg.norm(nxt))
        if lam == 0:
            lam = 1.0
            break
        x = nxt / lam
    step = 1.0 / (lam * 1.05)

    def prox_step(pr, pc, pd):
        e = predict(pr, pc, pd) - y
        gr = np.convolve(e[::-1], h)[:n][::-1]
        return (
            np.maximum(pr - step * (gr + alpha), 0.0),
            pc - step * (B.T @ e + gamma * pc),
            pd - step * (D.T @ e),
        )

    d0, *_ = np.linalg.lstsq(D, y, rcond=None)
    r, c, d = np.zeros(n), np.zeros(m), d0.copy()
    vr, vc, vd = r.copy(), c.copy(), d.copy()
    t_acc = 1.0
    f_cur = objective(r, c, d)
    converged = False
    iterations = 0
    for it in range(max_iter):
        iterations = it + 1
        nr, nc, nd = prox_step(vr, vc, vd)
        f_new = objective(nr, nc, nd)
        if f_new > f_cur:
            nr, nc, nd = prox_step(r, c, d)
            f_new = objective(nr, nc, nd)
            if f_new > f_cur:
                converged = True
                break
            t_acc = 1.0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        beta = (t_acc - 1.0) / t_next
        vr, vc, vd = nr + beta * (nr - r), nc + beta * (nc - c), nd + beta * (nd - d)
        r, c, d = nr, nc, nd
        t_acc = t_next
        if abs(f_cur - f_new) <= tol * max(1.0, abs(f_cur)):
            converged = True
            break
        f_cur = f_new
    return {
        "tonic": B @ c + D @ d,
        "phasic": np.convolve(r, h)[:n],
        "driver": r,
        "converged": converged,
        "iterations": iterations,
    }


def o_train_duplicated(X, y, weights, depth: int, rounds: int, learning_rate: float,
                       reg_lambda: float = 1.0, min_child_weight: float = 1.0):
    """Reference boosted-tree learner: a row of weight k is k duplicated
    rows, and every node argsorts every column of its rows afresh. Returns
    (base_score, trees), each tree as nested dicts ({"weight"} for a leaf;
    feature, threshold, missing_left, gain, left, right for a split).

    Split search, gains, tie-breaks and leaf weights are the learner's
    before it moved to one presort and row weights. A column with no
    missing value among a node's rows keeps missing_left=True, as the split
    rule specifies.
    """
    X = np.repeat(np.asarray(X, dtype=float), weights, axis=0)
    y = np.repeat(np.asarray(y, dtype=float), weights)
    n = X.shape[0]

    def gain_of(gl, hl, g_tot, h_tot, parent, valid):
        gr = g_tot - gl
        hr = h_tot - hl
        gain = gl * gl / (hl + reg_lambda)
        gain += gr * gr / (hr + reg_lambda)
        gain -= parent
        gain *= 0.5
        gain[~valid | (hl < min_child_weight) | (hr < min_child_weight)] = -np.inf
        return gain

    def best_split(g, h, rows):
        sub = X[rows]
        m, d = sub.shape
        if m < 2:
            return None
        g_sub, h_sub = g[rows], h[rows]
        g_tot, h_tot = float(g_sub.sum()), float(h_sub.sum())
        nan_mask = np.isnan(sub)
        keys = np.where(nan_mask, np.inf, sub)
        order = np.argsort(keys, axis=0)
        sv = np.take_along_axis(keys, order, axis=0)
        finite = np.isfinite(sv)
        sg = np.where(finite, g_sub[order], 0.0)
        sh = np.where(finite, h_sub[order], 0.0)
        cg = np.cumsum(sg, axis=0)
        ch = np.cumsum(sh, axis=0)
        valid = finite[1:] & (sv[1:] > sv[:-1])
        if not valid.any():
            return None
        parent = g_tot * g_tot / (h_tot + reg_lambda)
        gains = gain_of(cg[:-1], ch[:-1], g_tot, h_tot, parent, valid)
        missing_left = np.ones_like(gains, dtype=bool)
        cols = np.flatnonzero(nan_mask.any(axis=0))
        if cols.size:
            gain_left = gain_of(
                cg[:-1, cols] + (g_tot - cg[-1, cols]),
                ch[:-1, cols] + (h_tot - ch[-1, cols]),
                g_tot, h_tot, parent, valid[:, cols],
            )
            left_wins = gain_left >= gains[:, cols]
            gains[:, cols] = np.where(left_wins, gain_left, gains[:, cols])
            missing_left[:, cols] = left_wins
        f, i = divmod(int(np.argmax(gains.T)), m - 1)
        best = float(gains[i, f])
        if not np.isfinite(best) or best <= 0.0:
            return None
        return f, float(0.5 * (sv[i + 1, f] + sv[i, f])), bool(missing_left[i, f]), best

    def route(tree, rows):
        v = X[rows, tree["feature"]]
        return np.where(np.isnan(v), tree["missing_left"], v < tree["threshold"])

    def build(g, h, rows, level):
        g_tot, h_tot = float(g[rows].sum()), float(h[rows].sum())
        leaf = {"weight": -g_tot / (h_tot + reg_lambda)}
        if level >= depth or rows.size < 2:
            return leaf
        split = best_split(g, h, rows)
        if split is None:
            return leaf
        f, threshold, missing_left, gain = split
        node = {"feature": f, "threshold": threshold, "missing_left": missing_left, "gain": gain}
        go_left = route(node, rows)
        node["left"] = build(g, h, rows[go_left], level + 1)
        node["right"] = build(g, h, rows[~go_left], level + 1)
        return node

    def values(tree, rows):
        if "feature" not in tree:
            return np.full(rows.size, tree["weight"])
        go_left = route(tree, rows)
        out = np.empty(rows.size)
        out[go_left] = values(tree["left"], rows[go_left])
        out[~go_left] = values(tree["right"], rows[~go_left])
        return out

    prior = float(y.mean())
    base_score = float(np.log(prior / (1.0 - prior)))
    margin = np.full(n, base_score)
    trees = []
    for _ in range(rounds):
        p = np.empty(n)
        pos = margin >= 0
        p[pos] = 1.0 / (1.0 + np.exp(-margin[pos]))
        ez = np.exp(margin[~pos])
        p[~pos] = ez / (1.0 + ez)
        g = p - y
        h = p * (1.0 - p)
        tree = build(g, h, np.arange(n), 0)
        trees.append(tree)
        margin = margin + learning_rate * values(tree, np.arange(n))
    return base_score, trees


def o_write_e4_csv(signal, path) -> None:
    """Reference E4 writer: the whole file as one string, one repr per
    sample. ACC (an (N, 3) sample array, in g) goes back to counts at 64 per
    g, one comma-joined row per line."""
    if signal.samples.ndim == 2:
        ncols = 3
        lines = [",".join(repr(float(v)) for v in row) for row in signal.samples * 64.0]
    else:
        ncols = 1
        lines = [repr(float(v)) for v in signal.samples]
    header = [
        ",".join([repr(float(signal.start_time))] * ncols),
        ",".join([repr(float(signal.rate))] * ncols),
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(header + lines) + "\n")
