"""Correctness checks on one round of pipeline outputs.

Every expected value is computed here from the raw inputs, with code of the
benchmark's own, or is a property the method must have. The program's
modules are never imported by this file.

Each check returns failures keyed by the operation they invalidate:
("session", pid), ("fold", pid) or ("sequence", index).
"""
from __future__ import annotations

import csv
import json
import math
from itertools import groupby
from pathlib import Path

import numpy as np
from scipy.stats import mannwhitneyu

WINDOW_SECONDS = 5.0
CHANNELS = {"eda": "EDA.csv", "bvp": "BVP.csv", "hr": "HR.csv", "skt": "TEMP.csv", "acc": "ACC.csv"}
ACC_COUNTS_PER_G = 64.0
FEATURE_RTOL = 1e-9
PVALUE_RTOL = 1e-12

Failures = dict[tuple[str, object], list[str]]


def _fail(failures: Failures, op: tuple[str, object], message: str) -> None:
    failures.setdefault(op, []).append(message)


def read_e4(path: Path) -> tuple[float, float, np.ndarray]:
    """(start time, rate, samples) of one E4 file; ACC keeps three columns."""
    lines = path.read_text().split("\n")
    start = float(lines[0].split(",")[0])
    rate = float(lines[1].split(",")[0])
    ncols = lines[0].count(",") + 1
    values = np.array(",".join(ln for ln in lines[2:] if ln).replace(",", " ").split(), dtype=float)
    return start, rate, values.reshape(-1, ncols) if ncols > 1 else values


def raw_windows(session_dir: Path) -> dict[str, np.ndarray]:
    """Window matrices (n_windows, samples per window) of eda, bvp, hr, skt
    and accelerometer magnitude, over the channels' common interval."""
    raw = {name: read_e4(session_dir / fname) for name, fname in CHANNELS.items()}
    t0 = max(start for start, _, _ in raw.values())
    t1 = min(start + len(x) / rate for start, rate, x in raw.values())
    n_windows = int(math.floor((t1 - t0) / WINDOW_SECONDS + 1e-9))
    out = {}
    for name, (start, rate, x) in raw.items():
        first = int(math.ceil((t0 - start) * rate - 1e-9))
        spw = int(round(rate * WINDOW_SECONDS))
        block = x[first:first + n_windows * spw]
        if name == "acc":
            g = block / ACC_COUNTS_PER_G
            block = np.sqrt((g * g).sum(axis=1))
            name = "magnitude"
        out[name] = block.reshape(n_windows, spw)
    return out


def read_features(path: Path) -> tuple[list[str], dict[str, dict[str, np.ndarray]]]:
    """Column names and, per participant, window_index, label and the
    feature matrix in file order."""
    rows = [ln for ln in path.read_text().split("\n") if ln and not ln.startswith("#")]
    header = rows[0].split(",")
    columns = header[3:]
    cells: dict[str, list[list[str]]] = {}
    for ln in rows[1:]:
        parts = ln.split(",")
        cells.setdefault(parts[0], []).append(parts[1:])
    by_pid = {}
    for pid, part_rows in cells.items():
        by_pid[pid] = {
            "window_index": np.array([int(r[0]) for r in part_rows]),
            "label": np.array([int(r[1]) for r in part_rows]),
            "X": np.array([[float(c) if c else np.nan for c in r[2:]] for r in part_rows]),
        }
    return columns, by_pid


def iat_labels(path: Path) -> dict[str, int]:
    """Strong and moderate preferences are biased (1); slight and no are not."""
    with path.open(newline="") as fh:
        return {
            row["participant_id"]: int(row["iat_category"].split()[0].lower() in ("strong", "moderate"))
            for row in csv.DictReader(fh)
        }


def run_lengths(labels: str) -> list[tuple[str, int]]:
    return [(label, len(list(group))) for label, group in groupby(labels)]


def longest_run_label(labels: str) -> int:
    """Label of the longest run; a cross-label tie goes to the label with the
    larger count, then to 1."""
    rs = run_lengths(labels)
    longest = max(n for _, n in rs)
    top = {label for label, n in rs if n == longest}
    if len(top) == 1:
        return int(top.pop())
    ones = labels.count("1")
    return 0 if len(labels) - ones > ones else 1


def check_extract(sessions_dir: Path, labels_csv: Path, features_csv: Path) -> Failures:
    """Window counts, labels, raw-signal features and the phasic sign."""
    failures: Failures = {}
    columns, by_pid = read_features(features_csv)
    col = {name: columns.index(name) for name in
           ("eda_mean", "hr_max", "skt_median", "bvp_std", "magnitude_mean", "eda_phasic_min")}
    expected_label = iat_labels(labels_csv)
    oracles = {
        "eda_mean": ("eda", lambda w: w.mean(axis=1)),
        "hr_max": ("hr", lambda w: w.max(axis=1)),
        "skt_median": ("skt", lambda w: np.median(w, axis=1)),
        "bvp_std": ("bvp", lambda w: w.std(axis=1)),
        "magnitude_mean": ("magnitude", lambda w: w.mean(axis=1)),
    }
    for session_dir in sorted(p for p in sessions_dir.iterdir() if p.is_dir()):
        pid = session_dir.name
        op = ("session", pid)
        if pid not in by_pid:
            _fail(failures, op, f"{pid}: no rows in features.csv")
            continue
        got = by_pid[pid]
        windows = raw_windows(session_dir)
        n = windows["eda"].shape[0]
        if len(got["label"]) != n or not np.array_equal(got["window_index"], np.arange(n)):
            _fail(failures, op, f"{pid}: {len(got['label'])} rows, expected windows 0..{n - 1}")
            continue
        if not np.all(got["label"] == expected_label[pid]):
            _fail(failures, op, f"{pid}: label is not the IAT mapping {expected_label[pid]}")
        for name, (channel, oracle) in oracles.items():
            want = oracle(windows[channel])
            have = got["X"][:, col[name]]
            err = np.abs(have - want) / np.maximum(np.abs(want), 1e-300)
            if not np.all(err <= FEATURE_RTOL):
                _fail(failures, op, f"{pid}: {name} differs from numpy by {np.nanmax(err):.2e} relative")
        if not np.all(got["X"][:, col["eda_phasic_min"]] >= 0.0):
            _fail(failures, op, f"{pid}: negative eda_phasic_min")
    return failures


def check_evaluate(features_csv: Path, report_json: Path, planted_effect: bool) -> Failures:
    """Fold coverage, fold verdicts, group statistics and, when the corpus
    carries a planted effect, its recovery."""
    failures: Failures = {}
    columns, by_pid = read_features(features_csv)
    report = json.loads(report_json.read_text())
    folds = report["folds"]
    fold_pids = [f["participant"] for f in folds]
    everyone = [("fold", pid) for pid in sorted(by_pid)]
    if sorted(fold_pids) != sorted(by_pid):
        for op in everyone:
            _fail(failures, op, "folds do not cover each participant exactly once")
        return failures
    for f in folds:
        op = ("fold", f["participant"])
        if f["n_windows"] != len(by_pid[f["participant"]]["label"]):
            _fail(failures, op, f"{f['participant']}: n_windows {f['n_windows']} != rows in features.csv")
        if f["verdict"] != longest_run_label(f["smoothed"]):
            _fail(failures, op, f"{f['participant']}: verdict is not the longest-run label")

    means = {pid: np.array([c[~np.isnan(c)].mean() if np.any(~np.isnan(c)) else np.nan
                            for c in d["X"].T]) for pid, d in by_pid.items()}
    label = {pid: int(d["label"][0]) for pid, d in by_pid.items()}
    stats = {s["feature"]: s for s in report["group_stats"]}
    if sorted(stats) != sorted(columns):
        for op in everyone:
            _fail(failures, op, "group_stats do not list every feature once")
        return failures
    for j, feature in enumerate(columns):
        s = stats[feature]
        xs = np.array([means[p][j] for p in sorted(by_pid) if label[p] == 1 and not np.isnan(means[p][j])])
        ys = np.array([means[p][j] for p in sorted(by_pid) if label[p] == 0 and not np.isnan(means[p][j])])
        problem = None
        if (s["n_biased"], s["n_unbiased"]) != (xs.size, ys.size):
            problem = "group sizes differ"
        elif xs.size < 2 or ys.size < 2:
            problem = None if math.isnan(s["p_value"]) else "p-value reported for a group under 2"
        elif np.all(np.concatenate([xs, ys]) == xs[0]):
            problem = None if s["all_tied"] and s["p_value"] == 1.0 else "all-tied feature not flagged"
        else:
            ref = mannwhitneyu(xs, ys, use_continuity=True, alternative="two-sided", method="asymptotic")
            u, p = float(s["u_statistic"]), float(s["p_value"])
            if abs(p - ref.pvalue) > PVALUE_RTOL * abs(ref.pvalue):
                problem = f"p {p!r} != scipy {ref.pvalue!r}"
            elif min(abs(u - ref.statistic), abs(u - (xs.size * ys.size - ref.statistic))) > 1e-9:
                problem = f"U {u!r} is neither scipy's {ref.statistic!r} nor its complement"
        if problem:
            for op in everyone:
                _fail(failures, op, f"group_stats {feature}: {problem}")

    if planted_effect:
        accuracy = report["participant_metrics"]["accuracy"]
        eda_reported = [f for f in report["importance_reported"] if f.startswith("eda")]
        if accuracy < 0.9 or not eda_reported:
            for op in everyone:
                _fail(failures, op, f"planted effect missed: accuracy {accuracy:.3f}, "
                                    f"{len(eda_reported)} eda feature(s) reported")
    return failures


def check_smooth(index: int, labels: str, stdout: str) -> Failures:
    """Length kept, runs not multiplied, stopping rule met at the last
    traced pass, final label = longest-run label."""
    failures: Failures = {}
    op = ("sequence", index)
    lines = stdout.strip().split("\n")
    fields = dict(ln.split(": ", 1) for ln in lines if ": " in ln)
    smoothed = fields.get("smoothed", "")
    passes = [ln for ln in lines if ln.startswith("pass ")]
    if len(smoothed) != len(labels):
        _fail(failures, op, f"smoothed length {len(smoothed)} != input length {len(labels)}")
        return failures
    before, after = run_lengths(labels), run_lengths(smoothed)
    if len(after) > len(before):
        _fail(failures, op, f"{len(after)} runs after smoothing > {len(before)} before")
    last = passes[-1].split(": ", 1)[1] if passes else fields.get("original", "")
    if last != " ".join(f"{label}x{n}" for label, n in after):
        _fail(failures, op, "last traced pass differs from the smoothed output")
    mean_run = len(labels) / len(before)
    if not (len(after) < 3 or all(n > mean_run for _, n in after)):
        _fail(failures, op, "stopping rule not met: runs at or below the original mean run length remain")
    if fields.get("final label") != str(longest_run_label(smoothed)):
        _fail(failures, op, f"final label {fields.get('final label')} != longest-run label")
    return failures
