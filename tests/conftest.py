import numpy as np
import pytest

from physiobias.dataset import Dataset
from physiobias.features import (
    EDA_FEATURES,
    EXTRA_FEATURES,
    STAT_FEATURES,
    eda_extra_columns,
    extra_columns,
    stat_columns,
)

_GROUP_NAMES = {
    stat_columns: STAT_FEATURES,
    extra_columns: EXTRA_FEATURES,
    eda_extra_columns: EDA_FEATURES,
}


def slice_features(columns, x, rate: float) -> dict[str, float]:
    """One slice's features by name: a feature group's columns function
    applied to the slice as a one-row matrix."""
    row = columns(np.asarray(x, dtype=float)[None, :], rate)[0]
    return dict(zip(_GROUP_NAMES[columns], row.tolist()))


def make_dataset(X, y, pids=None, window_indices=None, columns=None) -> Dataset:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n = y.size
    if pids is None:
        pids = np.array([f"p{i}" for i in range(n)], dtype=object)
    if window_indices is None:
        window_indices = np.zeros(n, dtype=int)
    if columns is None:
        columns = [f"f{j}" for j in range(X.shape[1])]
    return Dataset(
        X=X,
        y=y,
        participant_ids=np.asarray(pids, dtype=object),
        window_indices=np.asarray(window_indices, dtype=int),
        column_names=list(columns),
    )


def tree_dict(tree, node: int = 0) -> dict:
    """A fitted gbt.Tree as the nested dicts of oracles.o_train_duplicated:
    {"weight"} for a leaf; feature, threshold, missing_left, gain, left and
    right for a split."""
    if tree.feature[node] < 0:
        return {"weight": float(tree.weight[node])}
    return {
        "feature": int(tree.feature[node]),
        "threshold": float(tree.threshold[node]),
        "missing_left": bool(tree.missing_left[node]),
        "gain": float(tree.gain[node]),
        "left": tree_dict(tree, int(tree.left[node])),
        "right": tree_dict(tree, int(tree.right[node])),
    }


@pytest.fixture
def dataset_factory():
    return make_dataset


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance PASS/FAIL lines where capture cannot hide them."""
    import sys

    module = sys.modules.get("test_acceptance")
    results = getattr(module, "RESULTS", None) if module else None
    if results:
        terminalreporter.section("acceptance criteria")
        for line in results:
            terminalreporter.write_line(line)
