"""features.csv, the hand-off from `extract` to `evaluate`: its one writer,
and its one reader, which validates the file once, naming the row at fault,
and returns the Dataset that `evaluate` reads.

A missing feature value is an empty cell in the file and NaN in memory; the
tree learner routes it through per-split default branches, so no imputation
happens anywhere.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import PhysioBiasError


@dataclass
class Dataset:
    """Rows are 5-second windows; columns are named features."""

    X: np.ndarray                 # (n, d) float, NaN = missing
    y: np.ndarray                 # (n,) int labels in {0, 1}
    participant_ids: np.ndarray   # (n,) str
    window_indices: np.ndarray    # (n,) int, window ordinal within participant
    column_names: list[str]

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]


def write_csv(path: str | Path, column_names: list[str],
              sessions: list[tuple[str, int, np.ndarray]], meta: dict) -> None:
    """Write features.csv: the `# <meta>` line, the header, then for each
    (participant, label, (n_windows, len(column_names)) matrix) in
    `sessions`, in order, one row per window, numbered from 0.

    A NaN cell is left empty and every other value is written as its repr,
    so from_csv reads the matrices back bit for bit. One session is
    formatted at a time.
    """
    with Path(path).open("w") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write(",".join(["participant_id", "window_index", "label", *column_names]) + "\n")
        for pid, label, matrix in sessions:
            fh.write("".join(
                f"{pid},{window},{label}," + ",".join(["" if v != v else repr(v) for v in row]) + "\n"
                for window, row in enumerate(matrix.tolist())
            ))


def from_csv(path: str | Path) -> Dataset:
    """Read a feature matrix written by write_csv.

    Raises:
        PhysioBiasError: an unreadable or undecodable file, or a malformed
            one: among others, a header with no feature column or with an
            empty or repeated column name, a repeated (participant, window),
            an infinite feature cell (an empty cell is a missing value), a
            label other than 0 or 1, or a participant whose windows carry
            both labels.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise PhysioBiasError(f"{path}: cannot read: {exc}") from None
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise PhysioBiasError(f"{path}: empty feature file")
    header = lines[0].split(",")
    if header[:3] != ["participant_id", "window_index", "label"]:
        raise PhysioBiasError(f"{path}: unexpected header {header[:3]}")
    columns = header[3:]
    if not columns:
        raise PhysioBiasError(f"{path}: no feature column in the header")
    for i, name in enumerate(header):
        if not name or name in header[:i]:
            raise PhysioBiasError(f"{path}: empty or repeated column name {name!r} in the header")
    pids, widx, labels, rows = [], [], [], []
    label_of: dict[str, int] = {}
    windows: set[tuple[str, int]] = set()
    try:
        for ln in lines[1:]:
            cells = ln.split(",")
            if len(cells) != len(header):
                raise PhysioBiasError(f"{path}: data row {len(rows) + 1}: row width {len(cells)} "
                                      f"!= header width {len(header)}")
            label = int(cells[2])
            if label_of.setdefault(cells[0], label) != label:
                raise PhysioBiasError(f"{path}: data row {len(rows) + 1}: participant {cells[0]!r} "
                                      f"has windows labelled {label_of[cells[0]]} and {label}")
            window = (cells[0], int(cells[1]))
            if window in windows:
                raise PhysioBiasError(f"{path}: data row {len(rows) + 1}: participant {cells[0]!r} "
                                      f"has window {window[1]} twice")
            windows.add(window)
            pids.append(cells[0])
            widx.append(window[1])
            labels.append(label)
            rows.append([float(c) if c else np.nan for c in cells[3:]])
    except ValueError as exc:
        raise PhysioBiasError(f"{path}: data row {len(rows) + 1}: {exc}") from None
    for pid, label in label_of.items():
        if not pid:
            raise PhysioBiasError(f"{path}: row with empty participant_id")
        if label not in (0, 1):
            raise PhysioBiasError(f"{path}: participant {pid!r} has label {label}; "
                                  "labels must be 0 or 1")
    X = np.asarray(rows, dtype=float).reshape(len(rows), len(columns))
    infinite = np.argwhere(np.isinf(X))
    if infinite.size:
        row, col = infinite[0]
        raise PhysioBiasError(f"{path}: data row {row + 1}: column {columns[col]!r} "
                              f"holds an infinite value")
    return Dataset(
        X=X,
        y=np.asarray(labels, dtype=int),
        participant_ids=np.asarray(pids, dtype=object),
        window_indices=np.asarray(widx, dtype=int),
        column_names=columns,
    )
