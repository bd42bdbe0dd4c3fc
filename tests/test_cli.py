import contextlib
import hashlib
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import physiobias
from physiobias.cli import main
from physiobias.dataset import from_csv
from physiobias.errors import InsufficientData
from physiobias.evaluation import evaluate
from physiobias.ingest import assemble_session, load_labels, parse_e4_csv
from physiobias.pool import spawn_pool
from physiobias.synth import RATES, SynthParams, generate_corpus


def src_env() -> dict[str, str]:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(physiobias.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def loaded_after_import(module: str, packages: tuple[str, ...]) -> list[str]:
    """The modules of `packages` that importing `module` leaves in
    sys.modules of a fresh interpreter."""
    code = (f"import sys, {module}; "
            f"print(' '.join(m for m in sys.modules if m.split('.')[0] in {packages!r}))")
    done = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_cli_import_leaves_scipy_unloaded():
    # Only the EDA solve needs scipy; evaluate, smooth and synth must not
    # pay for importing it.
    assert loaded_after_import("physiobias.cli", ("scipy",)) == []


def test_evaluation_import_starts_no_process_pool():
    # The folds run in one process.
    assert loaded_after_import("physiobias.evaluation", ("multiprocessing", "concurrent")) == []


def test_synth_import_loads_only_its_dependencies():
    # The package root re-exports nothing, so the generator (and each
    # spawned synth worker) loads neither the model, the features nor scipy.
    loaded = loaded_after_import("physiobias.synth", ("physiobias", "scipy"))
    unwanted = {"physiobias.gbt", "physiobias.evaluation", "physiobias.features",
                "physiobias.dataset", "physiobias.cli", "scipy"}
    assert unwanted.isdisjoint(loaded), loaded


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small synthetic corpus shared across CLI tests."""
    root = tmp_path_factory.mktemp("corpus")
    rc = main([
        "synth", "--out", str(root), "--participants-per-class", "3",
        "--session-seconds", "60", "--effect-size", "3", "--seed", "5",
    ])
    assert rc == 0
    return root


def run_extract(corpus, out_dir, extra=()):
    return main([
        "extract",
        "--data-dir", str(corpus / "sessions"),
        "--labels", str(corpus / "labels.csv"),
        "--out", str(out_dir),
        *extra,
    ])


class TestSynth:
    def test_layout_and_manifest(self, corpus):
        sessions = sorted(p.name for p in (corpus / "sessions").iterdir())
        assert sessions == [f"P{i:03d}" for i in range(1, 7)]
        manifest = json.loads((corpus / "synth_manifest.json").read_text())
        assert manifest["config"]["seed"] == 5
        assert manifest["tool"] == "physiobias"

    def test_reingests_losslessly(self, corpus):
        session = corpus / "sessions" / "P001"
        for name, channel in [("EDA.csv", "EDA"), ("ACC.csv", "ACC")]:
            sig = parse_e4_csv(session / name, channel)
            rate = RATES["eda" if channel == "EDA" else "acc"]
            assert sig.rate == rate

    def test_labels_cover_both_classes(self, corpus):
        labels = load_labels(corpus / "labels.csv")
        assert sorted(set(labels.values())) == [0, 1]

    def test_sessions_assemble(self, corpus):
        labels = load_labels(corpus / "labels.csv")
        session = assemble_session(corpus / "sessions" / "P002", labels)
        assert session.eda.duration >= 60.0

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["1-worker", "2-workers"])
    def test_corpus_bytes_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        generate_corpus(tmp_path, SynthParams(participants_per_class=1, session_seconds=60, seed=0))
        assert multiprocessing.active_children() == []
        assert corpus_sha256(tmp_path) == SMALL_CORPUS_SHA256

    def test_largest_effect_stays_within_the_eda_range(self, tmp_path):
        sessions, _ = generate_corpus(tmp_path, SynthParams(
            participants_per_class=1, session_seconds=60, effect_size=100))
        assert parse_e4_csv(sessions / "P001" / "EDA.csv", "EDA").samples.max() == 100.0


# generate_corpus(SynthParams(participants_per_class=1, session_seconds=60,
# seed=0)), hashed by corpus_sha256 from the output of the serial writer that
# the parallel one replaced.
SMALL_CORPUS_SHA256 = "37c90279f75f57e0f102c9cd0d5ca81983d42af16d08ed8964465b74e357b296"


def corpus_sha256(root):
    """sha256 over every file under root: relative path, then bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\n")
        digest.update(path.read_bytes())
    return digest.hexdigest()


# extract --debug-eda --decomp-max-iter 5 on the `corpus` fixture without
# P003's HR.csv: sha256 over corpus_sha256 of the output directory, then
# stdout and stderr, from the serial loop that the worker pool replaced.
EXTRACT_SHA256 = "866e84bf6e5deb61229e4ff307f34dd1bbb89f2e4893c8ae05cfe14fbdd6f760"


class TestExtract:
    def test_writes_feature_matrix(self, corpus, tmp_path):
        rc = run_extract(corpus, tmp_path)
        assert rc == 0
        data = from_csv(tmp_path / "features.csv")
        assert data.n_rows == 6 * 12  # six 61s sessions -> 12 windows each
        assert len(data.column_names) == 102

    def test_window_seconds_flag(self, corpus, tmp_path):
        rc = run_extract(corpus, tmp_path, ("--window-seconds", "10"))
        assert rc == 0
        data = from_csv(tmp_path / "features.csv")
        assert data.n_rows == 6 * 6

    def test_debug_eda_dumps(self, corpus, tmp_path):
        rc = run_extract(corpus, tmp_path, ("--debug-eda",))
        assert rc == 0
        dumps = sorted(p.name for p in (tmp_path / "eda_debug").iterdir())
        assert dumps == [f"P{i:03d}.csv" for i in range(1, 7)]

    def test_empty_data_dir_is_fatal(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        labels = tmp_path / "labels.csv"
        labels.write_text("participant_id,iat_category\n")
        rc = main(["extract", "--data-dir", str(empty), "--labels", str(labels),
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_partial_failure_skips_and_flags(self, corpus, tmp_path, capsys):
        broken = tmp_path / "sessions"
        broken.mkdir()
        for p in (corpus / "sessions").iterdir():
            dst = broken / p.name
            dst.mkdir()
            for f in p.iterdir():
                (dst / f.name).write_text(f.read_text())
        (broken / "P001" / "HR.csv").unlink()  # one broken session
        rc = main(["extract", "--data-dir", str(broken),
                   "--labels", str(corpus / "labels.csv"),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        data = from_csv(tmp_path / "out" / "features.csv")
        assert set(data.participant_ids) == {f"P{i:03d}" for i in range(2, 7)}

    def test_diagnostics_sidecar_is_deterministic(self, corpus, tmp_path):
        outputs = []
        for root in (tmp_path / "a", tmp_path / "b"):
            assert run_extract(corpus, root, ("--debug-eda",)) == 0
            outputs.append({p.relative_to(root).as_posix(): p.read_bytes()
                            for p in root.rglob("*") if p.is_file()})
        # every output file, byte for byte: the README promises identical reruns
        assert outputs[0] == outputs[1]
        assert sorted(outputs[0]) == [f"eda_debug/P{i:03d}.csv" for i in range(1, 7)] + [
            "extract_diagnostics.json", "features.csv"]
        doc = json.loads(outputs[0]["extract_diagnostics.json"])
        assert doc["meta"]["command"] == "extract"
        sessions = doc["sessions"]
        assert [s["participant"] for s in sessions] == [f"P{i:03d}" for i in range(1, 7)]
        tol = doc["meta"]["config"]["decomposition"]["tol"]
        for s in sessions:
            assert s["converged"] is True
            assert 0 < s["iterations"] < 5000
            assert 0.0 <= s["kkt_residual"] <= tol
            assert s["residual_rms"] >= 0.0
            assert s["windows"] == 12

    def test_unconverged_decomposition_warns_and_is_kept(self, corpus, tmp_path, capsys):
        rc = run_extract(corpus, tmp_path, ("--decomp-max-iter", "5"))
        assert rc == 0
        err = capsys.readouterr().err
        for i in range(1, 7):
            assert f"warning: P{i:03d}: EDA decomposition did not converge in 5 iterations" in err
        assert "skipping" not in err
        doc = json.loads((tmp_path / "extract_diagnostics.json").read_text())
        sessions = doc["sessions"]
        assert [(s["converged"], s["iterations"]) for s in sessions] == [(False, 5)] * 6
        tol = doc["meta"]["config"]["decomposition"]["tol"]
        assert all(s["kkt_residual"] > tol for s in sessions)
        assert from_csv(tmp_path / "features.csv").n_rows == 6 * 12

    def test_invalid_solver_flag_is_fatal_with_reason(self, corpus, tmp_path, capsys):
        rc = run_extract(corpus, tmp_path, ("--decomp-max-iter", "0"))
        assert rc == 2
        assert "error: max_iter must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "features.csv").exists()

    def test_fractional_window_samples_skip_every_session(self, corpus, tmp_path, capsys):
        # 2.5 s is 2.5 samples of the 1 Hz HR channel: no session can be
        # windowed without misaligning HR against the other channels.
        rc = run_extract(corpus, tmp_path, ("--window-seconds", "2.5"))
        assert rc == 2
        err = capsys.readouterr().err
        assert all(f"skipping P{i:03d}:" in err for i in range(1, 7))
        assert "whole number of samples" in err
        assert not (tmp_path / "features.csv").exists()

    def test_participant_id_with_comma_skipped(self, corpus, tmp_path, capsys):
        sessions = tmp_path / "sessions"
        shutil.copytree(corpus / "sessions", sessions)
        shutil.copytree(sessions / "P001", sessions / "P,007")
        labels = tmp_path / "labels.csv"
        labels.write_text((corpus / "labels.csv").read_text().rstrip("\n")
                          + '\n"P,007",strong preference for White\n')
        rc = main(["extract", "--data-dir", str(sessions), "--labels", str(labels),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "skipping P,007: participant id 'P,007' holds a comma" in err
        data = from_csv(tmp_path / "out" / "features.csv")
        assert set(data.participant_ids) == {f"P{i:03d}" for i in range(1, 7)}

    def test_window_seconds_one_skips_every_session(self, corpus, tmp_path, capsys):
        # 1 s windows hold one HR sample, too few for any statistic.
        rc = run_extract(corpus, tmp_path, ("--window-seconds", "1"))
        assert rc == 2
        err = capsys.readouterr().err
        for i in range(1, 7):
            assert f"skipping P{i:03d}: need >= 2 samples for statistics, got 1" in err
        assert not (tmp_path / "features.csv").exists()

    def test_non_utf8_channel_file_skips_session(self, corpus, tmp_path, capsys):
        sessions = tmp_path / "sessions"
        shutil.copytree(corpus / "sessions", sessions)
        (sessions / "P001" / "EDA.csv").write_bytes(b"1600000000.0\n4.0\n\xff\xfe\x80\n")
        rc = main(["extract", "--data-dir", str(sessions), "--labels", str(corpus / "labels.csv"),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "skipping P001: " in err and "EDA.csv" in err
        assert "Traceback" not in err
        data = from_csv(tmp_path / "out" / "features.csv")
        assert set(data.participant_ids) == {f"P{i:03d}" for i in range(2, 7)}

    def test_non_utf8_labels_is_fatal(self, corpus, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_bytes(b"participant_id,iat_category\nP001,\xff\xfe strong\n")
        rc = main(["extract", "--data-dir", str(corpus / "sessions"), "--labels", str(labels),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"error: {labels}: " in capsys.readouterr().err
        assert not (tmp_path / "out" / "features.csv").exists()

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["1-worker", "2-workers"])
    def test_outputs_do_not_depend_on_the_worker_count(
        self, corpus, tmp_path, monkeypatch, capsys, cpus
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.chdir(tmp_path)  # relative paths: no tmp_path in the outputs
        shutil.copytree(corpus / "sessions", "sessions")
        shutil.copy(corpus / "labels.csv", "labels.csv")
        Path("sessions/P003/HR.csv").unlink()
        capsys.readouterr()
        rc = main(["extract", "--data-dir", "sessions", "--labels", "labels.csv", "--out", "out",
                   "--debug-eda", "--decomp-max-iter", "5"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert multiprocessing.active_children() == []
        unconverged = "EDA decomposition did not converge in 5 iterations"
        assert err.splitlines() == [
            f"warning: P001: {unconverged}",
            f"warning: P002: {unconverged}",
            "skipping P003: P003: missing HR.csv",
            f"warning: P004: {unconverged}",
            f"warning: P005: {unconverged}",
            f"warning: P006: {unconverged}",
            "1 session(s) skipped",
        ]
        digest = hashlib.sha256((corpus_sha256(tmp_path / "out") + out + err).encode())
        assert digest.hexdigest() == EXTRACT_SHA256

    def test_meta_carries_no_seed(self, corpus, tmp_path):
        # extract draws no random numbers, so it takes and records no seed.
        assert run_extract(corpus, tmp_path) == 0
        meta = json.loads((tmp_path / "features.csv").read_text().splitlines()[0][2:])
        assert "seed" not in meta["config"]
        with pytest.raises(SystemExit) as exc:
            run_extract(corpus, tmp_path / "b", ("--seed", "1"))
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def features_csv(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("features")
    assert run_extract(corpus, out) == 0
    return out / "features.csv"


def _nan_marked(value):
    """value with every float NaN replaced by the string "NaN", so that two
    documents holding NaN compare equal with ==."""
    if isinstance(value, dict):
        return {k: _nan_marked(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_nan_marked(v) for v in value]
    return "NaN" if isinstance(value, float) and value != value else value


# A hand-written report: 46 participants, 26 biased, 35 verdicts right.
FIXED_REPORT = {
    "n_participants": 46,
    "baseline": 0.5652173913043478,
    "participant_metrics": {
        "accuracy": 0.7608695652173914,
        "per_class": {
            "1": {"precision": 0.7777777777777778, "recall": 0.8076923076923077,
                  "f1": 0.7924528301886793},
            "0": {"precision": 0.7368421052631579, "recall": 0.7, "f1": 0.717948717948718},
        },
        "confusion": {"tp": 21, "fp": 6, "tn": 14, "fn": 5},
    },
    "window_metrics": {"accuracy": 0.7246376811594203},
    "end_fraction": 0.8571428571428571,
    "importance_threshold": 23.0,
    "importance_counts": {"eda_phasic_mean": 46, "eda_tonic_slope": 40, "hr_mean": 12},
    "importance_reported": ["eda_phasic_mean", "eda_tonic_slope"],
}


class TestEvaluateCommand:
    def test_outputs_and_determinism(self, features_csv, tmp_path):
        args = ["evaluate", "--features", str(features_csv),
                "--rounds", "6", "--depth", "2", "--learning-rate", "0.3",
                "--seed", "9"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b
        doc = json.loads(a)
        assert doc["n_participants"] == 6
        assert doc["meta"]["config"]["seed"] == 9
        for table in ("importance_counts.csv", "group_stats.csv"):
            assert (tmp_path / "a" / table).read_bytes() == (tmp_path / "b" / table).read_bytes()

    def test_report_json_is_the_document_evaluate_returns(self, features_csv, tmp_path, monkeypatch):
        from physiobias import cli

        returned = []

        def recording_evaluate(*args, **kwargs):
            returned.append(evaluate(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(cli, "evaluate", recording_evaluate)
        # An all-missing first feature gives that feature NaN group statistics.
        lines = features_csv.read_text().splitlines()
        lines[2:] = [",".join([*row[:3], "", *row[4:]]) for row in (ln.split(",") for ln in lines[2:])]
        features = tmp_path / "features.csv"
        features.write_text("\n".join(lines) + "\n")
        assert main(["evaluate", "--features", str(features), "--rounds", "2",
                     "--out", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        del doc["meta"]
        assert _nan_marked(doc) == _nan_marked(returned[0])
        assert _nan_marked(doc["group_stats"][0])["p_value"] == "NaN"

    @pytest.mark.parametrize("flag, value, reason", [
        ("--depth", "0", "depth must be >= 1"),
        ("--learning-rate", "2", "learning_rate must be in (0, 1]"),
        ("--top-n", "0", "top_n must be >= 1"),
        ("--top-n", "-1", "top_n must be >= 1"),
    ])
    def test_invalid_model_flag_is_fatal_with_reason(
        self, features_csv, tmp_path, capsys, flag, value, reason
    ):
        rc = main(["evaluate", "--features", str(features_csv), "--rounds", "2",
                   "--out", str(tmp_path / "out"), flag, value])
        assert rc == 2
        assert f"error: {reason}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_missing_features_file(self, tmp_path):
        rc = main(["evaluate", "--features", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_report_command(self, features_csv, tmp_path, capsys):
        out = tmp_path / "r"
        main(["evaluate", "--features", str(features_csv), "--rounds", "4",
              "--depth", "2", "--out", str(out)])
        capsys.readouterr()
        rc = main(["report", "--report", str(out / "report.json")])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "participant accuracy" in printed
        assert "baseline" in printed

    def test_mixed_labels_within_participant_fatal(self, features_csv, tmp_path, capsys):
        lines = features_csv.read_text().splitlines()
        row = next(i for i, ln in enumerate(lines) if ln.startswith("P001,"))
        cells = lines[row].split(",")
        cells[2] = str(1 - int(cells[2]))
        lines[row] = ",".join(cells)
        flipped = tmp_path / "features.csv"
        flipped.write_text("\n".join(lines) + "\n")
        rc = main(["evaluate", "--features", str(flipped), "--rounds", "2",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "participant 'P001' has windows labelled" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_report_prints_a_fixed_document(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(FIXED_REPORT))
        assert main(["report", "--report", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "participants: 46   baseline: 0.565",
            "participant accuracy: 0.761",
            "  biased    precision 0.778  recall 0.808  f1 0.792",
            "  unbiased  precision 0.737  recall 0.700  f1 0.718",
            "window accuracy: 0.725",
            "majority window at end (correct biased): 0.857",
            "features above importance threshold (23): 2",
            "  eda_phasic_mean (46 folds)",
            "  eda_tonic_slope (40 folds)",
        ]

    def test_report_non_utf8_fatal(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_bytes(b'{"n_participants": "\xff\xfe"}')
        assert main(["report", "--report", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_report_without_metrics_fatal(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text("{}")
        assert main(["report", "--report", str(path)]) == 2
        out = capsys.readouterr()
        assert "not a physiobias report" in out.err and "participant_metrics" in out.err
        assert out.out == ""


class TestSmoothCommand:
    def test_trace_from_file(self, tmp_path, capsys):
        f = tmp_path / "seq.txt"
        f.write_text("1101\n")
        rc = main(["smooth", "--input", str(f)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "original: 1x2 0x1 1x1" in out
        assert "smoothed: 1111" in out
        assert "final label: 1" in out

    def test_accepts_separators(self, tmp_path, capsys):
        f = tmp_path / "seq.txt"
        f.write_text("0, 0, 0, 1, 1, 0, 0, 0, 0\n")
        rc = main(["smooth", "--input", str(f)])
        assert rc == 0
        assert "smoothed: 000000000" in capsys.readouterr().out

    def test_empty_input_fatal(self, tmp_path):
        f = tmp_path / "seq.txt"
        f.write_text("nothing here\n")
        assert main(["smooth", "--input", str(f)]) == 2

    def test_missing_input_fatal(self, tmp_path, capsys):
        assert main(["smooth", "--input", str(tmp_path / "nope.txt")]) == 2
        assert "error: cannot read the sequence" in capsys.readouterr().err

    def test_non_utf8_input_fatal(self, tmp_path, capsys):
        f = tmp_path / "seq.txt"
        f.write_bytes(b"\xff\xfe\x80\n")
        assert main(["smooth", "--input", str(f)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestCheckOrder:
    def test_window_seconds_one_skips_before_the_solve(self, corpus, tmp_path, capsys, monkeypatch):
        # The solve runs on the extract workers, which a patch here cannot
        # reach, so the order is checked on the session function itself.
        from physiobias import features

        def no_solve(*args, **kwargs):
            raise AssertionError("decompose called")

        session = assemble_session(corpus / "sessions" / "P001", load_labels(corpus / "labels.csv"))
        with monkeypatch.context() as patch:
            patch.setattr(features, "decompose", no_solve)
            with pytest.raises(InsufficientData, match="need >= 2 samples for statistics, got 1"):
                features.extract_session_features(session, window_seconds=1)
        assert run_extract(corpus, tmp_path, ("--window-seconds", "1")) == 2
        err = capsys.readouterr().err
        for i in range(1, 7):
            assert f"skipping P{i:03d}: need >= 2 samples for statistics, got 1" in err

    def test_evaluate_out_naming_a_file_fails_before_training(
        self, features_csv, tmp_path, capsys, monkeypatch
    ):
        from physiobias import evaluation

        def no_training(*args, **kwargs):
            raise AssertionError("train called")

        monkeypatch.setattr(evaluation, "train", no_training)
        out = tmp_path / "out"
        out.write_text("")
        assert main(["evaluate", "--features", str(features_csv), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def session_pids(sid: int) -> list[int]:
    """The live (not zombie) processes of session `sid`, read from /proc."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _, _, session = stat.read_text().rsplit(")", 1)[1].split()[:4]
        except (OSError, ValueError):
            continue  # the process has gone
        if int(session) == sid and state != "Z":
            pids.append(int(stat.parent.name))
    return pids


def pool_workers(cli: subprocess.Popen, tasks: int) -> list[int]:
    """The pids of the CLI process's pool workers, once all have started.

    The pool spawns its workers as it submits the first tasks; a worker
    killed before the last one is registered can hang Python 3.11's
    ProcessPoolExecutor, so the kills wait for all of them."""
    count = min(len(os.sched_getaffinity(0)), tasks)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline and cli.poll() is None:
        workers = []
        for pid in session_pids(cli.pid):
            with contextlib.suppress(OSError):
                if b"spawn_main" in Path(f"/proc/{pid}/cmdline").read_bytes():
                    workers.append(pid)
        if len(workers) == count:
            time.sleep(0.1)  # for the pool to register the last one
            return workers
        time.sleep(0.01)
    pytest.fail(f"the pool workers did not start (CLI exit code {cli.poll()})")


@pytest.fixture
def cli_process(corpus, tmp_path):
    """Start `physiobias synth|extract` in its own session, with stdout and
    stderr piped; whatever of that session survives the test is killed."""
    started = []
    argv = {
        "synth": ["synth", "--out", str(tmp_path / "c"), "--participants-per-class", "2",
                  "--session-seconds", "3600"],
        "extract": _extract_args(corpus, tmp_path / "out"),
    }

    def start(command):
        """The CLI process and the number of tasks its pool gets."""
        code = "import sys; from physiobias.cli import main; sys.exit(main())"
        started.append(subprocess.Popen([sys.executable, "-c", code, *argv[command]],
                                        env=src_env(), stdout=subprocess.PIPE,
                                        stderr=subprocess.PIPE, start_new_session=True))
        return started[-1], {"synth": 4, "extract": 6}[command]

    yield start
    for cli in started:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(cli.pid, signal.SIGKILL)
        cli.communicate(timeout=60)


def warning_filters():
    return warnings.filters


class TestPoolProcesses:
    def test_workers_take_the_callers_warning_filters(self):
        with warnings.catch_warnings():
            warnings.filterwarnings("error", "a filter set in code")
            with spawn_pool(1) as pool:
                assert warnings.filters[0] in pool.submit(warning_filters).result()

    @pytest.mark.parametrize("command", ["synth", "extract"])
    def test_killed_cli_leaves_no_process_behind(self, cli_process, command):
        cli, tasks = cli_process(command)
        pool_workers(cli, tasks)
        cli.kill()
        cli.wait()
        deadline = time.monotonic() + 5
        while session_pids(cli.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert session_pids(cli.pid) == []

    @pytest.mark.parametrize("command", ["synth", "extract"])
    def test_killed_worker_is_one_error_line(self, cli_process, command):
        cli, tasks = cli_process(command)
        os.kill(pool_workers(cli, tasks)[0], signal.SIGKILL)
        _, err = cli.communicate(timeout=60)
        assert cli.returncode == 2, err
        err = err.decode()
        assert "Traceback" not in err
        errors = [ln for ln in err.splitlines() if ln.startswith("error: ")]
        assert len(errors) == 1 and "terminated abruptly" in errors[0], err


# The CLI contract: every input ends handled, in a skipped session (exit 1)
# or in one `error: <reason>` line (exit 2), never in a traceback. Each case
# builds its command line from the two-session corpus, its features.csv and
# a scratch directory.

def _synth_args(tmp, *flags):
    return ["synth", "--out", str(tmp / "c"), "--participants-per-class", "1",
            "--session-seconds", "60", *flags]


def _a_file(tmp):
    path = tmp / "a_file"
    path.write_text("")
    return path


def _extract_args(corpus, out, sessions=None):
    return ["extract", "--data-dir", str(sessions or corpus / "sessions"),
            "--labels", str(corpus / "labels.csv"), "--out", str(out)]


def _evaluate_args(features, out, *flags):
    return ["evaluate", "--features", str(features), "--out", str(out), "--rounds", "2", *flags]


def _overflowing_acc(corpus, features, tmp):
    sessions = tmp / "sessions"
    shutil.copytree(corpus / "sessions", sessions)
    acc = sessions / "P001" / "ACC.csv"
    lines = acc.read_text().splitlines()
    lines[2 + 30 * 32] = "1e300,1e300,1e300"  # 30 s in: inside the aligned interval
    acc.write_text("\n".join(lines) + "\n")
    return _extract_args(corpus, tmp / "out", sessions)


def _eda_sample(value):
    def build(corpus, features, tmp):
        sessions = tmp / "sessions"
        shutil.copytree(corpus / "sessions", sessions)
        eda = sessions / "P001" / "EDA.csv"
        lines = eda.read_text().splitlines()
        lines[2 + 30 * 4] = value
        eda.write_text("\n".join(lines) + "\n")
        return _extract_args(corpus, tmp / "out", sessions)
    return build


def _p001_file(name, edit):
    """A case that extracts the corpus after `edit` rewrote the text of
    P001's channel file `name`."""
    def build(corpus, features, tmp):
        sessions = tmp / "sessions"
        shutil.copytree(corpus / "sessions", sessions)
        path = sessions / "P001" / name
        path.write_bytes(edit(path.read_text()).encode())
        return _extract_args(corpus, tmp / "out", sessions)
    return build


def _line(lineno, value, end="\n"):
    """An edit that replaces line `lineno` with `value` and ends every line with `end`."""
    def edit(text):
        lines = text.splitlines()
        lines[lineno - 1] = value
        return end.join(lines) + end
    return edit


def _header(text):
    return "".join(text.splitlines(True)[:2])


def _session_dir_is_a_file(corpus, features, tmp):
    (tmp / "c" / "sessions").mkdir(parents=True)
    (tmp / "c" / "sessions" / "P001").write_text("")
    return _synth_args(tmp)


def _features_with(edit):
    """A case that evaluates features.csv after `edit` rewrote its header and
    rows, each a list of cells."""
    def build(corpus, features, tmp):
        meta, header, *rows = features.read_text().splitlines()
        header, rows = edit(header.split(","), [row.split(",") for row in rows])
        path = tmp / "features.csv"
        path.write_text("\n".join([meta] + [",".join(row) for row in [header, *rows]]) + "\n")
        return _evaluate_args(path, tmp / "out")
    return build


def _two_per_class(rows):
    """The rows again under new participant ids, so that every fold could train."""
    return rows + [[row[0] + "b", *row[1:]] for row in rows]


_label_two = _features_with(
    lambda header, rows: (header, [[*row[:2], "2" if row[2] == "0" else row[2], *row[3:]]
                                   for row in rows]))


def _report_of(text):
    def build(corpus, features, tmp):
        path = tmp / "report.json"
        path.write_text(text)
        return ["report", "--report", str(path)]
    return build


def _smooth_of(text):
    def build(corpus, features, tmp):
        path = tmp / "seq.txt"
        path.write_text(text)
        return ["smooth", "--input", str(path)]
    return build


CONTRACT = [
    ("synth-participants-0", lambda c, f, t: _synth_args(t, "--participants-per-class", "0"),
     "participants_per_class must be >= 1"),
    ("synth-session-seconds-negative", lambda c, f, t: _synth_args(t, "--session-seconds", "-5"),
     "session_seconds must be positive"),
    ("synth-session-seconds-nan", lambda c, f, t: _synth_args(t, "--session-seconds", "nan"),
     "session_seconds must be positive"),
    ("synth-session-seconds-1e300", lambda c, f, t: _synth_args(t, "--session-seconds", "1e300"),
     "session_seconds must be positive and at most 172800"),
    ("synth-effect-size-negative", lambda c, f, t: _synth_args(t, "--effect-size", "-1"),
     "effect_size must be >= 0"),
    ("synth-effect-size-1e300", lambda c, f, t: _synth_args(t, "--effect-size", "1e300"),
     "effect_size must be >= 0 and at most 100"),
    ("synth-seed-negative", lambda c, f, t: _synth_args(t, "--seed", "-1"),
     "seed must be >= 0"),
    ("synth-out-is-a-file",
     lambda c, f, t: ["synth", "--out", str(_a_file(t)), "--participants-per-class", "1"],
     "a_file"),
    ("synth-session-dir-is-a-file", _session_dir_is_a_file, "sessions/P001"),
    ("extract-out-is-a-file", lambda c, f, t: _extract_args(c, _a_file(t)), "a_file"),
    ("extract-window-seconds-nan",
     lambda c, f, t: _extract_args(c, t / "out") + ["--window-seconds", "nan"],
     "no usable sessions"),
    ("extract-knot-spacing-nan",
     lambda c, f, t: _extract_args(c, t / "out") + ["--knot-spacing", "nan"],
     "knot_spacing must be > 0"),
    ("extract-decomp-alpha-nan",
     lambda c, f, t: _extract_args(c, t / "out") + ["--decomp-alpha", "nan"],
     "alpha, gamma and tol must be > 0"),
    ("extract-min-duration-nan",
     lambda c, f, t: _extract_args(c, t / "out") + ["--min-duration", "nan"],
     "min_duration must be finite and >= 0, got nan"),
    ("extract-min-duration-negative",
     lambda c, f, t: _extract_args(c, t / "out") + ["--min-duration", "-5"],
     "min_duration must be finite and >= 0, got -5.0"),
    ("extract-overflowing-acc-row", _overflowing_acc, "skipping P001: "),
    # finite, but its fourth power is not
    ("extract-eda-sample-1e300", _eda_sample("1e300"), "skipping P001: "),
    # finite to the fourth power, but beyond the sensor's 100 uS
    ("extract-eda-sample-1e60", _eda_sample("1e60"), "skipping P001: "),
    # The E4 parser reads what np.loadtxt reads; line numbers count every
    # line. Line 123 of EDA.csv and line 963 of ACC.csv are 30 s in.
    ("extract-eda-hash-line", _p001_file("EDA.csv", _line(123, "#")),
     "skipping P001: <tmp>/sessions/P001/EDA.csv:123: non-numeric row '#'"),
    ("extract-eda-underscore-number", _p001_file("EDA.csv", _line(123, "1_0")),
     "skipping P001: <tmp>/sessions/P001/EDA.csv:123: non-numeric row '1_0'"),
    ("extract-eda-whitespace-line", _p001_file("EDA.csv", _line(123, "  ")),
     "skipping P001: <tmp>/sessions/P001/EDA.csv:123: non-numeric row '  '"),
    # loadtxt reads this file as one (1, 2) row
    ("extract-eda-two-value-row", _p001_file("EDA.csv", lambda text: _header(text) + "1,2\n"),
     "skipping P001: <tmp>/sessions/P001/EDA.csv:3: expected 1 column(s), got 2"),
    ("extract-acc-two-value-row", _p001_file("ACC.csv", _line(963, "0,64")),
     "skipping P001: <tmp>/sessions/P001/ACC.csv:963: expected 3 column(s), got 2"),
    ("extract-eda-crlf-line-ends", _p001_file("EDA.csv", _line(123, "1e60", end="\r\n")),
     "skipping P001: <tmp>/sessions/P001/EDA.csv:123: EDA sample 1e+60 uS is outside"),
    ("extract-eda-header-only", _p001_file("EDA.csv", _header),
     "skipping P001: <tmp>/sessions/P001/EDA.csv: no data rows"),
    ("evaluate-out-is-a-file", lambda c, f, t: _evaluate_args(f, _a_file(t)), "a_file"),
    ("evaluate-seed-negative", lambda c, f, t: _evaluate_args(f, t / "out", "--seed", "-1"),
     "seed must be >= 0"),
    ("evaluate-folds-parallel-0",
     lambda c, f, t: _evaluate_args(f, t / "out", "--folds-parallel", "0"),
     "--folds-parallel must be 1 (folds run in one process), got 0"),
    # checked before the features file is read
    ("evaluate-folds-parallel-2",
     lambda c, f, t: _evaluate_args(t / "missing.csv", t / "out", "--folds-parallel", "2"),
     "--folds-parallel must be 1 (folds run in one process), got 2"),
    ("evaluate-importance-threshold-nan",
     lambda c, f, t: _evaluate_args(f, t / "out", "--importance-threshold", "nan"),
     "importance_threshold must be finite"),
    ("evaluate-reg-lambda-nan",
     lambda c, f, t: _evaluate_args(f, t / "out", "--reg-lambda", "nan"),
     "reg_lambda and min_child_weight must be >= 0"),
    ("evaluate-label-2", _label_two, "labels must be 0 or 1"),
    ("evaluate-no-feature-column",
     _features_with(lambda h, rows: (h[:3], _two_per_class([row[:3] for row in rows]))),
     "no feature column in the header"),
    ("evaluate-repeated-column-name",
     _features_with(lambda h, rows: (h[:4] + h[3:4], _two_per_class([row[:5] for row in rows]))),
     "empty or repeated column name 'eda_max' in the header"),
    ("evaluate-empty-column-name",
     _features_with(lambda h, rows: (h[:3] + [""] + h[4:], _two_per_class(rows))),
     "empty or repeated column name '' in the header"),
    ("evaluate-repeated-window",
     _features_with(lambda h, rows: (h, _two_per_class(rows + rows[:1]))),
     "participant 'P001' has window 0 twice"),
    ("evaluate-infinite-feature-cell",
     _features_with(lambda h, rows: (h, _two_per_class(
         [rows[0], [*rows[1][:3], "inf", *rows[1][4:]], *rows[2:]]))),
     "data row 2: column 'eda_max' holds an infinite value"),
    ("evaluate-short-row",
     _features_with(lambda h, rows: (h, [*rows[:2], rows[2][:-1], *rows[3:]])),
     "data row 3: row width 104 != header width 105"),
    ("evaluate-label-flipped-in-a-later-row",
     _features_with(lambda h, rows: (h, [*rows[:3], [*rows[3][:2], str(1 - int(rows[3][2])),
                                                     *rows[3][3:]], *rows[4:]])),
     "data row 4: participant 'P001' has windows labelled"),
    ("evaluate-one-participant-per-class", lambda c, f, t: _evaluate_args(f, t / "out"),
     "needs >= 2 participants per class, got 1 biased and 1 unbiased"),
    ("smooth-label-2", _smooth_of("0 1 2 1 0\n"), "seq.txt:1:5: unexpected character '2'"),
    ("smooth-negative-label", _smooth_of("0,-1,0\n"), "seq.txt:1:3: unexpected character '-'"),
    ("report-on-a-list", _report_of("[]"), "not a physiobias report"),
    ("report-nested-too-deep", _report_of("[" * 100_000 + "]" * 100_000), "recursion"),
    ("report-number-beyond-float",
     _report_of('{"participant_metrics": {}, "n_participants": 1, "baseline": 1' + "0" * 400 + "}"),
     "not a physiobias report (OverflowError"),
]


@pytest.fixture(scope="module")
def two_session_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("two_sessions")
    assert main(["synth", "--out", str(root), "--participants-per-class", "1",
                 "--session-seconds", "60"]) == 0
    assert main(_extract_args(root, root / "features")) == 0
    return root, root / "features" / "features.csv"


@pytest.mark.parametrize("build, reason", [case[1:] for case in CONTRACT],
                         ids=[case[0] for case in CONTRACT])
def test_error_contract(two_session_corpus, tmp_path, capsys, build, reason):
    corpus, features = two_session_corpus
    argv = build(corpus, features, tmp_path)
    capsys.readouterr()
    try:
        rc = main(argv)
    except (Exception, SystemExit) as exc:
        pytest.fail(f"{type(exc).__name__} escaped main: {exc}")
    assert multiprocessing.active_children() == []
    err = capsys.readouterr().err.replace(str(tmp_path), "<tmp>")
    errors = [ln for ln in err.splitlines() if ln.startswith("error: ")]
    if reason.startswith("skipping "):
        assert rc == 1, err
        assert reason in err and not errors, err
        data = from_csv(tmp_path / "out" / "features.csv")
        assert set(data.participant_ids) == {"P002"}
    else:
        assert rc == 2, err
        assert len(errors) == 1 and reason in errors[0], err
