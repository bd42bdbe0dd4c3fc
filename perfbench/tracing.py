"""In-memory span tracing of one physiobias process, from outside the program.

`Tracer.install` replaces named functions in the program's modules with
wrappers that record a span (name, start, end, parent) around each call and
count the work the call did. Each wrapper is installed on the module that
makes the call (``cli.assemble_session``, not ``ingest.assemble_session``),
because the modules import names directly. A name that a version of the
program no longer has is listed in `absent` instead of failing the run.

Accounting: a wrapper's own bookkeeping (span allocation, counting the work
in the result) runs outside the span it records, and its cost is added to
`overhead_s`. A span's self time is its duration minus its children's
durations minus their bookkeeping, so within one stage the self times of
all spans plus the recorded bookkeeping add up to the stage's wall time by
construction. `overhead_s` is a lower bound: calling the wrapper, packing
its arguments and leaving it happen outside the timed bookkeeping and are
charged to the parent's self time.
"""
from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

clock = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    child_overhead: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _split_nodes(model: Any) -> int:
    """Split nodes of a trained ensemble (nodes with a feature)."""
    total = 0
    stack = list(model.trees)
    while stack:
        node = stack.pop()
        if node.feature is not None:
            total += 1
            stack += [node.left, node.right]
    return total


def _count_parse(args, kwargs, result) -> dict[str, float]:
    return {"files": 1, "bytes": os.path.getsize(args[0])}


def _count_decompose(args, kwargs, result) -> dict[str, float]:
    eda = args[0]
    return {
        "signal_min": eda.samples.size / eda.rate / 60.0,
        "iterations": result.iterations,
        "unconverged": int(not result.converged),
    }


def _count_to_csv(args, kwargs, result) -> dict[str, float]:
    return {"bytes": os.path.getsize(args[1])}


def _count_from_csv(args, kwargs, result) -> dict[str, float]:
    return {"bytes": os.path.getsize(args[0])}


def _count_train(args, kwargs, result) -> dict[str, float]:
    return {"rows": args[0].X.shape[0], "split_nodes": _split_nodes(result)}


def _count_len(args, kwargs, result) -> dict[str, float]:
    return {"n": len(result)}


def _count_smooth(args, kwargs, result) -> dict[str, float]:
    smoothed, trace = result
    return {"windows": len(smoothed), "passes": len(trace) - 1}


# (module, attribute, span name, counter). The module is the caller, so the
# wrapper sees exactly the calls one layer makes into the next.
LAYERS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("physiobias.cli", "generate_corpus", "synth.generate", None),
    ("physiobias.cli", "load_labels", "ingest.load_labels", None),
    ("physiobias.cli", "assemble_session", "ingest.assemble", None),
    ("physiobias.ingest", "parse_e4_csv", "ingest.parse", _count_parse),
    ("physiobias.cli", "extract_session_features", "features.extract_session", None),
    ("physiobias.features", "decompose", "eda.decompose", _count_decompose),
    ("physiobias.features", "magnitude", "signals.magnitude", None),
    ("physiobias.features", "partition_windows", "signals.partition", _count_len),
    ("physiobias.features", "window_features", "features.window", None),
    ("physiobias.cli", "dump_components_csv", "eda.debug_dump", None),
    ("physiobias.cli", "build_feature_matrix", "features.build_matrix", None),
    ("physiobias.dataset", "Dataset.to_csv", "dataset.to_csv", _count_to_csv),
    ("physiobias.cli", "from_csv", "dataset.from_csv", _count_from_csv),
    ("physiobias.cli", "evaluate", "evaluation.evaluate", None),
    ("physiobias.evaluation", "lopo_folds", "evaluation.lopo_folds", _count_len),
    ("physiobias.evaluation", "oversample", "evaluation.oversample", None),
    ("physiobias.evaluation", "train", "gbt.train", _count_train),
    ("physiobias.evaluation", "predict_proba_matrix", "gbt.predict", None),
    ("physiobias.evaluation", "importance", "gbt.importance", None),
    ("physiobias.evaluation", "smooth", "smoothing.fold_smooth", None),
    ("physiobias.evaluation", "group_difference", "evaluation.group_difference", None),
    ("physiobias.cli", "smooth_with_trace", "smoothing.day_smooth", _count_smooth),
)


class Tracer:
    """Records spans of wrapped calls; single-threaded, one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.overhead_s = 0.0
        self.absent: list[str] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, 0.0, parent=parent))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, bookkeeping: float) -> None:
        self.stack.pop()
        self.overhead_s += bookkeeping
        parent = self.spans[idx].parent
        if parent is not None:
            self.spans[parent].child_overhead += bookkeeping

    def stage(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run fn as a root span; roots carry no wrapper bookkeeping."""
        idx = self._open(name)
        span = self.spans[idx]
        span.start = clock()
        try:
            return fn()
        finally:
            span.end = clock()
            self._close(idx, 0.0)

    def _wrap(self, fn: Callable, name: str, counter: Callable | None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            entered = clock()
            idx = tracer._open(name)
            span = tracer.spans[idx]
            span.start = clock()
            finished = False
            try:
                result = fn(*args, **kwargs)
                finished = True
                return result
            finally:
                span.end = clock()
                if counter is not None and finished:
                    try:
                        span.counts = counter(args, kwargs, result)
                    except (AttributeError, TypeError, IndexError, OSError):
                        span.counts = {}
                tracer._close(idx, (span.start - entered) + (clock() - span.end))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module_name, attr, name, counter in LAYERS:
            *path, leaf = attr.split(".")
            try:
                owner: Any = importlib.import_module(module_name)
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patched.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._patched):
            setattr(owner, leaf, original)
        self._patched.clear()

    # ---- summaries -------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s.duration - s.child_overhead for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def stage_accounting(self) -> list[tuple[str, float, float, float]]:
        """(stage, wall, sum of self times, recorded bookkeeping) per root
        span. Parents are opened before their children, so one forward pass
        finds every span's root."""
        selfs = self.self_times()
        root_of: list[int] = []
        acc: dict[int, list[float]] = {}
        for i, s in enumerate(self.spans):
            root = i if s.parent is None else root_of[s.parent]
            root_of.append(root)
            entry = acc.setdefault(root, [0.0, 0.0])
            entry[0] += selfs[i]
            entry[1] += s.child_overhead
        return [(self.spans[r].name, self.spans[r].duration, v[0], v[1]) for r, v in acc.items()]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def count(self, name: str, key: str) -> float:
        return sum(s.counts.get(key, 0.0) for s in self.spans if s.name == name)

    def to_json(self) -> dict:
        selfs = self.self_times()
        return {
            "absent": self.absent,
            "overhead_s": self.overhead_s,
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "self_s": selfs[i], "counts": s.counts}
                for i, s in enumerate(self.spans)
            ],
        }
