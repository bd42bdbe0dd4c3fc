"""Fit the two-state Markov chains behind the day-long label sequences.

    python3 perfbench/fit_markov.py <evaluate output dir>/report.json

Prints, per truth class, P(0->1) and P(1->0) of the predicted window
sequences in the report's folds, and the mean run length of each label.
`MARKOV` in run.py holds the figures fitted on the paper_cohort corpus
(synth seed 11, effect size 3, 4 rounds, depth 2, learning rate 0.3).
"""
from __future__ import annotations

import json
import sys
from pathlib import Path


def fit(report: dict) -> dict[int, tuple[float, float]]:
    out = {}
    for truth in (1, 0):
        moves = {(a, b): 0 for a in "01" for b in "01"}
        for fold in report["folds"]:
            if fold["truth"] == truth:
                seq = fold["predicted"]
                for a, b in zip(seq, seq[1:]):
                    moves[a, b] += 1
        p01 = moves["0", "1"] / max(1, moves["0", "0"] + moves["0", "1"])
        p10 = moves["1", "0"] / max(1, moves["1", "0"] + moves["1", "1"])
        out[truth] = (p01, p10)
    return out


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().split("\n")[2].strip(), file=sys.stderr)
        return 2
    for truth, (p01, p10) in fit(json.loads(Path(sys.argv[1]).read_text())).items():
        print(f"truth {truth}: p01 {p01:.4f}  p10 {p10:.4f}  "
              f"mean run of 0s {1 / p01 if p01 else float('inf'):.2f}  "
              f"mean run of 1s {1 / p10 if p10 else float('inf'):.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
