"""Benchmark of the physiobias pipeline, end to end and per layer.

    python3 perfbench/run.py --workload paper_cohort --seed 1 --seconds 45 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. With ``--trace 0`` every CLI stage runs as its own ``physiobias``
process, timed by wall clock and by that child's peak RSS (``os.wait4``).
With ``--trace 1`` the stages run inside this process under
`tracing.Tracer`, which gives the per-layer numbers and the tracing
overhead. Every run checks the outputs (`checks.py`) and prints, as
its last line, one JSON object: correct, attempted, failed, metrics.

``--workload all`` runs every workload in turn. See README.md for the
workloads, the metrics and the reference figures.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SPANS = HERE / ".spans"

EFFECT_SIZE = 3.0
EVAL_SEED = 5
SETUP_REPEATS = 2
STARTUP_REPEATS = 3
MODEL_FLAGS = ["--depth", "2", "--learning-rate", "0.3", "--folds-parallel", "1"]

# Day-long prediction sequences: 24 h of 5 s windows with the run lengths of
# a two-state Markov chain per class, P(0->1) and P(1->0) fitted on the
# predicted sequences of the paper_cohort corpus (synth seed 11, 4 rounds).
# Regenerate with
#   python3 perfbench/fit_markov.py <eval dir>/report.json
DAY_WINDOWS = 17_280
MARKOV = {1: (0.7209, 0.1021), 0: (0.0407, 0.2570)}  # truth class: (p01, p10)


@dataclass(frozen=True)
class Workload:
    participants_per_class: int
    session_seconds: float
    rounds: int
    day_sequences: tuple[int, ...]  # truth class of each day-long sequence
    planted_effect_check: bool


WORKLOADS = {
    "paper_cohort": Workload(23, 300.0, 2, (1,), True),
    "long_session": Workload(2, 1800.0, 12, (1,), False),
}

# ---- child processes --------------------------------------------------------

CHILD = "import sys; sys.path.insert(0, sys.argv.pop(1)); from physiobias.cli import main; sys.exit(main())"


@dataclass
class Stage:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def run_stage(args: list[str], log: Path) -> Stage:
    """One `physiobias <args>` process; wall time and its own peak RSS."""
    out, err = log.with_suffix(".out"), log.with_suffix(".err")
    with out.open("w") as fo, err.open("w") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CHILD, str(SRC), *args], stdout=fo, stderr=fe)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Stage(wall, usage.ru_maxrss / 1024.0, proc.returncode, out.read_text(), err.read_text())


def calibrate() -> float:
    """Fixed numpy and pure-Python work; no program change can move it."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    a = rng.standard_normal((300, 300))
    for _ in range(30):
        a = np.sort(a @ a.T, axis=0) / 300.0
    total = 0
    for i in range(4_000_000):
        total += i % 7
    return time.perf_counter() - start


# ---- inputs -----------------------------------------------------------------

def day_sequences(seed: int, classes: tuple[int, ...]) -> list[str]:
    """One day-long 0/1 label sequence per class, from the seed.

    Runs alternate from the class's label with the chain's geometric run
    lengths. Their number is fixed at the chain's expected count over a day,
    and the runs of the class's own label are rescaled to fill the day
    exactly, so every seed asks the same smoothing work, which grows with
    the square of the run count."""
    rng = np.random.default_rng([seed, 17])
    out = []
    for truth in classes:
        p01, p10 = MARKOV[truth]
        n_runs = round(DAY_WINDOWS * 2 * p01 * p10 / (p01 + p10))
        own = np.arange(n_runs) % 2 == 0
        leave = {0: p01, 1: p10}
        lengths = rng.geometric(np.where(own, leave[truth], leave[1 - truth]))
        # own runs: 1 + (length - 1) scaled to the windows left, rounded by
        # largest remainder so the day has exactly DAY_WINDOWS windows
        spare = DAY_WINDOWS - lengths[~own].sum() - own.sum()
        scaled = (lengths[own] - 1) * spare / (lengths[own] - 1).sum()
        extra = np.floor(scaled).astype(int)
        extra[np.argsort(extra - scaled)[:spare - extra.sum()]] += 1
        lengths[own] = 1 + extra
        labels = np.repeat(np.where(own, truth, 1 - truth), lengths)
        out.append("".join(map(str, labels)))
    return out


def synth_args(w: Workload, seed: int, out: Path) -> list[str]:
    return ["synth", "--out", str(out), "--participants-per-class", str(w.participants_per_class),
            "--session-seconds", str(w.session_seconds), "--effect-size", str(EFFECT_SIZE),
            "--seed", str(seed)]


def extract_args(corpus: Path, out: Path) -> list[str]:
    return ["extract", "--data-dir", str(corpus / "sessions"), "--labels", str(corpus / "labels.csv"),
            "--out", str(out), "--debug-eda"]


def evaluate_args(w: Workload, features: Path, out: Path) -> list[str]:
    return ["evaluate", "--features", str(features), "--out", str(out),
            "--rounds", str(w.rounds), "--seed", str(EVAL_SEED), *MODEL_FLAGS]


# ---- one round of the pipeline ----------------------------------------------

class Ledger:
    """Attempted operations and the ones that failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []
        self.notes: list[str] = []

    def settle(self, ops: list[tuple[str, object]], failures: checks.Failures,
               skipped: set[tuple[str, object]] = frozenset()) -> None:
        self.attempted += len(ops)
        bad = set(failures) | set(skipped)
        self.failed += sum(1 for op in ops if op in bad)
        for messages in failures.values():
            self.check_failures += messages
        for op in skipped:
            self.notes.append(f"{op[0]} {op[1]}: skipped or stage failed")


def pipeline_round(w: Workload, corpus: Path, sequences: list[Path], out: Path, runner) -> dict:
    """extract, evaluate and smooth once on a ready corpus."""
    out.mkdir(parents=True, exist_ok=True)
    features = out / "features" / "features.csv"
    return {
        "extract": runner(extract_args(corpus, out / "features"), out / "extract"),
        "evaluate": runner(evaluate_args(w, features, out / "eval"), out / "evaluate"),
        "smooth": [runner(["smooth", "--input", str(q)], out / f"smooth{i}")
                   for i, q in enumerate(sequences)],
    }


def crashed(stage: Stage) -> bool:
    """An uncaught exception: Python exits 1, as extract does when it only
    skipped sessions, so the traceback tells the two apart."""
    return "Traceback (most recent call last)" in stage.stderr


def checked(ops: list[tuple[str, object]], check) -> checks.Failures:
    """Run a check; outputs it cannot read fail every operation of the stage."""
    try:
        return check()
    except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        return {op: [f"{op[0]} {op[1]}: unreadable output ({type(exc).__name__}: {exc})"] for op in ops}


def check_round(w: Workload, corpus: Path, sequences: list[Path], out: Path, stages: dict,
                ledger: Ledger) -> None:
    """Count one round's operations and check its outputs into the ledger.
    A session the CLI skipped, or every operation of a stage that crashed,
    exited with an error or left no output, counts as failed without
    further checks."""
    pids = sorted(p.name for p in (corpus / "sessions").iterdir() if p.is_dir())
    features = out / "features" / "features.csv"
    report = out / "eval" / "report.json"
    ext, ev = stages["extract"], stages["evaluate"]
    session_ops = [("session", pid) for pid in pids]
    if ext.returncode in (0, 1) and not crashed(ext) and features.is_file():
        skipped = {op for op in session_ops if f"skipping {op[1]}:" in ext.stderr}
        ledger.settle(session_ops, checked(session_ops, lambda: checks.check_extract(
            corpus / "sessions", corpus / "labels.csv", features)), skipped)
    else:
        ledger.settle(session_ops, {}, set(session_ops))

    fold_ops = [("fold", pid) for pid in pids]
    if ev.returncode == 0 and report.is_file():
        ledger.settle(fold_ops, checked(fold_ops, lambda: checks.check_evaluate(
            features, report, w.planted_effect_check)))
    else:
        ledger.settle(fold_ops, {}, set(fold_ops))

    for i, (seq, sm) in enumerate(zip(sequences, stages["smooth"])):
        op = ("sequence", i)
        if sm.returncode == 0:
            ledger.settle([op], checked([op], lambda: checks.check_smooth(
                i, seq.read_text().strip(), sm.stdout)))
        else:
            ledger.settle([op], {}, {op})


def setup(w: Workload, seed: int, work: Path, runner, repeats: int) -> tuple[Path, list[Path], list[float]]:
    """Generate the corpus (and day sequences) `repeats` times; keep the first."""
    times = []
    for i in range(repeats):
        target = work / f"corpus{i}"
        start = time.perf_counter()
        st = runner(synth_args(w, seed, target), work / f"synth{i}")
        seqs = day_sequences(seed, w.day_sequences)
        paths = []
        for j, seq in enumerate(seqs):
            paths.append(target / f"day{j}.txt")
            paths[-1].write_text(seq + "\n")
        times.append(time.perf_counter() - start)
        if st.returncode != 0:
            raise SystemExit(f"error: synth exited {st.returncode}: {st.stderr.strip()}")
        if i == 0:
            corpus, sequences = target, paths
        else:
            shutil.rmtree(target)
    return corpus, sequences, times


# ---- the traced run ---------------------------------------------------------

def in_process_runner(tracer: Tracer, cli_main):
    """Runs `physiobias <args>` by calling cli.main here, as one root span."""
    def runner(args: list[str], log: Path) -> Stage:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = tracer.stage(args[0], lambda: cli_main(args))
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash, as a child process would show it
                traceback.print_exc()
                code = 1
            wall = time.perf_counter() - start
        return Stage(wall, 0.0, code, out.getvalue(), err.getvalue())
    return runner


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    mib = 1024.0 * 1024.0
    parse_s = t.total("ingest.parse")
    decompose_s = t.total("eda.decompose")
    window_s = t.total("features.window")
    train_s = t.total("gbt.train")
    split_nodes = t.count("gbt.train", "split_nodes")
    day_s = t.total("smoothing.day_smooth")
    return {
        "synth.generate_s": (t.total("synth.generate"), "s"),
        "ingest.parse_s": (parse_s, "s"),
        "ingest.parse_mb_per_s": (ratio(t.count("ingest.parse", "bytes") / mib, parse_s), "MB/s"),
        "ingest.files": (t.count("ingest.parse", "files"), "count"),
        "eda.decompose_s": (decompose_s, "s"),
        "eda.s_per_signal_min": (ratio(decompose_s, t.count("eda.decompose", "signal_min")), "s/min"),
        "eda.iterations": (t.count("eda.decompose", "iterations"), "count"),
        "eda.unconverged": (t.count("eda.decompose", "unconverged"), "count"),
        "eda.debug_dump_s": (t.total("eda.debug_dump"), "s"),
        "signals.partition_s": (t.total("signals.partition"), "s"),
        "signals.windows": (t.count("signals.partition", "n"), "count"),
        "features.window_s": (window_s, "s"),
        "features.windows_per_s": (ratio(t.calls("features.window"), window_s), "1/s"),
        "features.build_matrix_s": (t.total("features.build_matrix"), "s"),
        "dataset.to_csv_s": (t.total("dataset.to_csv"), "s"),
        "dataset.from_csv_s": (t.total("dataset.from_csv"), "s"),
        "dataset.csv_mb": (t.count("dataset.to_csv", "bytes") / mib, "MB"),
        "evaluation.folds": (t.count("evaluation.lopo_folds", "n"), "count"),
        "evaluation.train_rows": (t.count("gbt.train", "rows"), "count"),
        "evaluation.oversample_s": (t.total("evaluation.oversample"), "s"),
        "evaluation.group_difference_s": (t.total("evaluation.group_difference"), "s"),
        "gbt.train_s": (train_s, "s"),
        "gbt.split_nodes": (split_nodes, "count"),
        "gbt.s_per_split_node": (ratio(train_s, split_nodes), "s"),
        "gbt.predict_s": (t.total("gbt.predict"), "s"),
        "smoothing.fold_smooth_s": (t.total("smoothing.fold_smooth"), "s"),
        "smoothing.day_smooth_s": (day_s, "s"),
        "smoothing.windows_per_s": (ratio(t.count("smoothing.day_smooth", "windows"), day_s), "1/s"),
        "smoothing.passes": (t.count("smoothing.day_smooth", "passes"), "count"),
    }


def import_cli():
    """physiobias.cli from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    from physiobias import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported physiobias from {cli.__file__}, not {SRC}")
    return cli


def traced_run(w: Workload, seed: int, work: Path, ledger: Ledger) -> tuple[dict, Tracer]:
    """Per-layer numbers: synth, then one round, inside this process with
    every layer wrapped. The outputs get the same checks as untraced ones."""
    startup_s = statistics.median(
        run_stage(["--version"], work / f"version{i}").wall_s for i in range(STARTUP_REPEATS))
    cli = import_cli()
    tracer = Tracer()
    tracer.install()
    try:
        runner = in_process_runner(tracer, cli.main)
        corpus, sequences, _ = setup(w, seed, work, runner, 1)
        stages = pipeline_round(w, corpus, sequences, work / "traced", runner)
    finally:
        tracer.uninstall()
    check_round(w, corpus, sequences, work / "traced", stages, ledger)

    metrics = {"cli.startup_s": (startup_s, "s"), **layer_metrics(tracer)}
    selfs = tracer.self_times()
    for i, span in enumerate(tracer.spans):
        if span.parent is None and span.name in ("extract", "evaluate"):
            metrics[f"cli.{span.name}_self_s"] = (selfs[i], "s")
    # Self time is defined as what the children and their bookkeeping leave,
    # so these sums equal the stage's wall time by construction; the lines
    # show that every second of a stage is attributed to some layer.
    for stage, wall, self_sum, bookkeeping in tracer.stage_accounting():
        print(f"accounting {stage}: wall {wall:.6f} s = self times {self_sum:.6f} s"
              f" + bookkeeping {bookkeeping:.6f} s")
    metrics["trace.overhead_s"] = (tracer.overhead_s, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    # Traced in-process stage wall times. Against an untraced run of the same
    # seed, <stage>_s - cli.startup_s - trace.<stage>_wall_s is the tracing
    # overhead as seen end to end.
    metrics["trace.extract_wall_s"] = (stages["extract"].wall_s, "s")
    metrics["trace.evaluate_wall_s"] = (stages["evaluate"].wall_s, "s")
    metrics["trace.smooth_wall_s"] = (sum(s.wall_s for s in stages["smooth"]), "s")
    return metrics, tracer


# ---- entry point ------------------------------------------------------------

def host_info() -> dict:
    import scipy
    blas = "unknown"
    config = np.show_config(mode="dicts") or {}
    blas_info = config.get("Build Dependencies", {}).get("blas", {})
    if blas_info:
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or f"default ({os.cpu_count()})"
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": threads}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    try:
        if trace:
            calibration = calibrate()
            layers, tracer = traced_run(w, seed, work, ledger)
            metrics = {"host.calibration_s": (calibration, "s"), **layers}
            SPANS.mkdir(exist_ok=True)
            (SPANS / f"{name}-seed{seed}.json").write_text(json.dumps(tracer.to_json()))
            if tracer.absent:
                print(f"absent layers: {', '.join(tracer.absent)}")
        else:
            corpus, sequences, setup_times = setup(w, seed, work, run_stage, SETUP_REPEATS)
            rounds = []
            began = time.perf_counter()
            # Whole rounds only; another one starts while it is expected to
            # end within `seconds`.
            while not rounds or (time.perf_counter() - began) * (len(rounds) + 1) / len(rounds) <= seconds:
                out = work / f"round{len(rounds)}"
                rounds.append(pipeline_round(w, corpus, sequences, out, run_stage))
                check_round(w, corpus, sequences, out, rounds[-1], ledger)
            med = statistics.median
            metrics = {
                "setup_s": (med(setup_times), "s"),
                "extract_s": (med(r["extract"].wall_s for r in rounds), "s"),
                "evaluate_s": (med(r["evaluate"].wall_s for r in rounds), "s"),
                "smooth_s": (med(sum(s.wall_s for s in r["smooth"]) for r in rounds), "s"),
                "extract_peak_rss_mb": (med(r["extract"].peak_rss_mb for r in rounds), "MB"),
                "evaluate_peak_rss_mb": (med(r["evaluate"].peak_rss_mb for r in rounds), "MB"),
            }
            print(f"rounds: {len(rounds)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in ledger.check_failures + ledger.notes:
        print(f"FAIL {message}")
    return {
        "correct": not ledger.check_failures,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="measuring time; rounds repeat while the next one fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so the running stage is killed and the
    # work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "physiobias" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'physiobias'}", file=sys.stderr)
        return 2
    print("host: " + json.dumps(host_info()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = result
        print(f"== {name} (seed {args.seed}): attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<32} {m['value']:>14.6f} {m['unit']}")
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
