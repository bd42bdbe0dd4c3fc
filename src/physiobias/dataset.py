"""Feature matrix container shared by the learner and the evaluation harness.

Missing feature values are carried as NaN; the tree learner routes them
through per-split default branches, so no imputation happens anywhere.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import LabelError, ParseError


@dataclass
class Dataset:
    """Rows are 5-second windows; columns are named features."""

    X: np.ndarray                 # (n, d) float, NaN = missing
    y: np.ndarray                 # (n,) int labels in {0, 1}
    participant_ids: np.ndarray   # (n,) str
    window_indices: np.ndarray    # (n,) int, window ordinal within participant
    column_names: list[str]

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=int)
        self.participant_ids = np.asarray(self.participant_ids, dtype=object)
        self.window_indices = np.asarray(self.window_indices, dtype=int)
        n = self.X.shape[0]
        if self.X.ndim != 2:
            raise ValueError("X must be 2-D")
        if self.X.shape[1] != len(self.column_names):
            raise ValueError("X width does not match column_names")
        if not (self.y.shape == (n,) == self.participant_ids.shape == self.window_indices.shape):
            raise ValueError("row metadata lengths disagree")
        if n and not np.isin(self.y, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        if any(not pid for pid in self.participant_ids):
            raise ValueError("participant ids must be non-empty")

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    def participants(self) -> list[str]:
        seen: dict[str, None] = {}
        for pid in self.participant_ids:
            seen.setdefault(pid, None)
        return sorted(seen)

    def participant_label(self, pid: str) -> int:
        rows = np.flatnonzero(self.participant_ids == pid)
        if rows.size == 0:
            raise KeyError(pid)
        return int(self.y[rows[0]])

    def to_csv(self, path: str | Path, meta: dict | None = None) -> None:
        """Write the matrix with a `participant_id,window_index,label,...`
        header; missing cells are left empty. `meta` lands in a leading
        comment line so re-parsing can skip it."""
        path = Path(path)
        lines = []
        if meta is not None:
            lines.append("# " + json.dumps(meta, sort_keys=True))
        lines.append(",".join(["participant_id", "window_index", "label"] + self.column_names))
        for pid, window, label, row in zip(
            self.participant_ids, self.window_indices.tolist(), self.y.tolist(), self.X.tolist()
        ):
            cells = [str(pid), str(window), str(label)]
            cells += ["" if v != v else repr(v) for v in row]
            lines.append(",".join(cells))
        path.write_text("\n".join(lines) + "\n")


def from_csv(path: str | Path) -> Dataset:
    """Read a feature matrix written by Dataset.to_csv.

    Raises:
        ParseError: an unreadable or undecodable file, or a malformed one:
            among others, a header with no feature column or with an empty
            or repeated column name, a repeated (participant, window), or
            an infinite feature cell (an empty cell is a missing value).
        LabelError: a label other than 0 or 1, or a participant whose
            windows carry both labels.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read: {exc}") from None
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError(f"{path}: empty feature file")
    header = lines[0].split(",")
    if header[:3] != ["participant_id", "window_index", "label"]:
        raise ParseError(f"{path}: unexpected header {header[:3]}")
    columns = header[3:]
    if not columns:
        raise ParseError(f"{path}: no feature column in the header")
    for i, name in enumerate(header):
        if not name or name in header[:i]:
            raise ParseError(f"{path}: empty or repeated column name {name!r} in the header")
    pids, widx, labels, rows = [], [], [], []
    label_of: dict[str, int] = {}
    windows: set[tuple[str, int]] = set()
    try:
        for ln in lines[1:]:
            cells = ln.split(",")
            if len(cells) != len(header):
                raise ParseError(f"{path}: row width {len(cells)} != header width {len(header)}")
            label = int(cells[2])
            if label_of.setdefault(cells[0], label) != label:
                raise LabelError(f"{path}: participant {cells[0]!r} has windows labelled "
                                 f"{label_of[cells[0]]} and {label}")
            window = (cells[0], int(cells[1]))
            if window in windows:
                raise ParseError(f"{path}: data row {len(rows) + 1}: participant {cells[0]!r} "
                                 f"has window {window[1]} twice")
            windows.add(window)
            pids.append(cells[0])
            widx.append(window[1])
            labels.append(label)
            rows.append([float(c) if c else np.nan for c in cells[3:]])
    except ValueError as exc:
        raise ParseError(f"{path}: data row {len(rows) + 1}: {exc}") from None
    for pid, label in label_of.items():
        if not pid:
            raise ParseError(f"{path}: row with empty participant_id")
        if label not in (0, 1):
            raise LabelError(f"{path}: participant {pid!r} has label {label}; labels must be 0 or 1")
    X = np.asarray(rows, dtype=float).reshape(len(rows), len(columns))
    infinite = np.argwhere(np.isinf(X))
    if infinite.size:
        row, col = infinite[0]
        raise ParseError(f"{path}: data row {row + 1}: column {columns[col]!r} "
                         f"holds an infinite value")
    return Dataset(
        X=X,
        y=np.asarray(labels),
        participant_ids=np.asarray(pids, dtype=object),
        window_indices=np.asarray(widx),
        column_names=columns,
    )
