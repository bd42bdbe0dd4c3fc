"""Run-merging smoothing of per-window label sequences.

A prediction sequence is viewed as maximal runs of identical labels. Passes
k = 1, 2, 3, ... sweep the sequence left to right; every run of length
exactly k whose two flanking runs agree is relabeled to the flanking label,
and a run at a sequence boundary is absorbed into its single neighbor. A
run's left flank is judged as the sweep has left it, merges included, and a
run absorbed in a pass does not trigger another merge in that pass.

Between passes the process stops once fewer than three runs remain, or once
every remaining run is longer than the mean run length of the original
sequence. (Stopping at three *or fewer* runs would freeze three-run inputs
and the canonical trace 1101 -> 1111 could never happen.)
"""
from __future__ import annotations

from itertools import groupby
from typing import Iterable, Sequence


def runs(labels: Sequence[int]) -> list[tuple[int, int]]:
    """Run-length decomposition into maximal (label, length) streaks, which
    tile the sequence exactly."""
    if len(labels) == 0:
        raise ValueError("empty label sequence")
    return [(int(label), len(list(streak))) for label, streak in groupby(labels)]


def _format_runs(rs: list[tuple[int, int]]) -> str:
    return " ".join(f"{label}x{length}" for label, length in rs)


def smooth_with_trace(labels: Sequence[int]) -> tuple[list[int], list[str]]:
    """Smooth a 0/1 sequence; also return one trace line per executed pass.

    Each pass sweeps the run list once. With 0/1 labels pass k leaves no run
    of length k or less, so the whole smooth costs O(n)."""
    rs = runs([int(v) for v in labels])
    original_mean = len(labels) / len(rs)
    trace = [f"original: {_format_runs(rs)}"]

    k = 0
    while (len(rs) > 2 and k < max(length for _, length in rs)
           and not all(length > original_mean for _, length in rs)):
        k += 1
        out: list[tuple[int, int]] = []  # the runs the sweep has left behind it
        i = 0
        while i < len(rs):
            label, length = rs[i]
            right = rs[i + 1] if i + 1 < len(rs) else None
            if length == k and out and (right is None or right[0] == out[-1][0]):
                # absorbed into its left flank, with the right flank if any
                out[-1] = (out[-1][0], out[-1][1] + length + (right[1] if right else 0))
                i += 2
            elif length == k and not out:
                out.append((right[0], length + right[1]))  # leading boundary run
                i += 2
            else:  # not of length k, or its flanks disagree
                out.append((label, length))
                i += 1
        rs = out
        trace.append(f"pass {k}: {_format_runs(rs)}")
    return [label for label, length in rs for _ in range(length)], trace


def smooth(labels: Sequence[int]) -> list[int]:
    """Smooth a per-window 0/1 prediction sequence into consecutive blocks."""
    smoothed, _ = smooth_with_trace(labels)
    return smoothed


def final_label(labels: Sequence[int]) -> int:
    """Label of the longest run. A cross-label tie goes to the label with
    the larger total count in the sequence, then to label 1."""
    rs = runs(labels)
    longest = max(length for _, length in rs)
    top_labels = {label for label, length in rs if length == longest}
    if len(top_labels) == 1:
        return top_labels.pop()
    ones = sum(1 for v in labels if v == 1)
    zeros = len(labels) - ones
    if ones > zeros:
        return 1
    if zeros > ones:
        return 0
    return 1


def majority_window_location(probabilities: Sequence[float], verdict: int) -> str:
    """Third of the sequence (start/middle/end) where the verdict label is
    most probable: the one whose windows have the highest mean probability
    of that label, window i falling in the third that i / n does. The first
    third wins ties.

    Read from the per-window probabilities, not from the smoothed labels:
    smoothing turns most verdicts into one run over the whole session,
    whose position says nothing about when the response occurred.

    Raises:
        ValueError: no window predicted with the verdict label (a
            probability >= 0.5 for label 1, < 0.5 for label 0).
    """
    n = len(probabilities)
    if not any(int(p >= 0.5) == verdict for p in probabilities):
        raise ValueError("verdict label absent from the predictions")
    sums, counts = [0.0, 0.0, 0.0], [0, 0, 0]
    for i, p in enumerate(probabilities):
        third = 0 if 3 * i < n else 1 if 3 * i < 2 * n else 2
        sums[third] += p if verdict == 1 else 1.0 - p
        counts[third] += 1
    best = max((k for k in range(3) if counts[k]), key=lambda k: sums[k] / counts[k])
    return ("start", "middle", "end")[best]


def location_summary(
    locations: Iterable[str],
    verdicts: Iterable[int],
    truths: Iterable[int],
) -> float | None:
    """Fraction of correctly-labeled biased participants whose majority
    window sits at the end. None (undefined) when there are none."""
    hits = [
        loc
        for loc, verdict, truth in zip(locations, verdicts, truths)
        if truth == 1 and verdict == 1
    ]
    if not hits:
        return None
    return sum(1 for loc in hits if loc == "end") / len(hits)
