"""Command-line orchestration: synth -> extract -> evaluate -> report.

Every output embeds the configuration (with the seed, for the commands that
draw random numbers) and the tool version, and carries no timestamps, so a
rerun with the same flags is byte-identical. In `evaluate` the seed drives
only each fold's oversampling draw; the boosted trees draw nothing.
`extract` takes no tuning flag: it windows at 5 s, drops sessions shorter
than 30 s and solves EDA with `DecompParams()`, and its meta records all three.
Exit codes: 0 success, 1 partial failure (some sessions skipped), 2 fatal.
The error policy lives in two places. A command raises PhysioBiasError for
a bad flag or input file (each read converts OSError and decode errors into
one), or OSError for an output it cannot write; `main` alone turns either
into one `error: <reason>` line and exit 2. `extract` skips a session whose
own files or signals raise PhysioBiasError, with a
`skipping <session>: <reason>` line.
`extract` also writes extract_diagnostics.json (per session: EDA solver
convergence, iterations, KKT residual, residual RMS and window count) and
warns on stderr about each session whose decomposition did not converge;
such a session is kept, so the warning does not change the exit code.
`synth` and `extract` run on `pool.spawn_pool`; this process prints and
writes everything in participant or session order, so no output depends on
the worker count, and a worker that dies ends the command with one
`error:` line and exit 2.
At module level this imports only the stdlib, `errors` and `params` (the
parameters, which import no numpy). Each command imports the modules it
runs when it starts, as does the extract worker function, so `smooth` loads
`smoothing` alone, `report` only `json`, and neither loads numpy; an extract
worker loads the parser, the features and the EDA solve, but not the model,
the evaluation, `synth` or `smoothing`.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from functools import partial
from pathlib import Path

from . import __version__
from .errors import PhysioBiasError
from .params import (DEFAULT_SEED, DEFAULT_WINDOW_SECONDS, EFFECT_LOCATIONS,
                     MIN_SESSION_SECONDS, DecompParams, GbtParams, SynthParams)


def _meta(command: str, config: dict) -> dict:
    return {
        "tool": "physiobias",
        "version": __version__,
        "command": command,
        "config": config,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="physiobias",
        description="Wearable-session feature extraction and participant bias classification.",
    )
    parser.add_argument("--version", action="version", version=f"physiobias {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate synthetic E4 sessions + labels")
    p_synth.add_argument("--out", required=True, type=Path)
    p_synth.add_argument("--participants-per-class", type=int,
                         default=SynthParams.participants_per_class)
    p_synth.add_argument("--session-seconds", type=float, default=SynthParams.session_seconds)
    p_synth.add_argument("--effect-size", type=float, default=SynthParams.effect_size)
    p_synth.add_argument("--effect-location", choices=EFFECT_LOCATIONS,
                         default=SynthParams.effect_location)
    p_synth.add_argument("--seed", type=int, default=SynthParams.seed)

    p_ext = sub.add_parser("extract", help="sessions -> features.csv")
    p_ext.add_argument("--data-dir", required=True, type=Path)
    p_ext.add_argument("--labels", required=True, type=Path)
    p_ext.add_argument("--out", required=True, type=Path, help="output directory")
    p_ext.add_argument("--debug-eda", action="store_true", help="dump per-session decompositions")

    p_eval = sub.add_parser("evaluate", help="features.csv -> report.json + tables")
    p_eval.add_argument("--features", required=True, type=Path)
    p_eval.add_argument("--out", required=True, type=Path, help="output directory")
    p_eval.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_eval.add_argument("--folds-parallel", type=int, default=1,
                        help="must be 1: the folds run in one process")
    p_eval.add_argument("--depth", type=int, default=GbtParams.depth)
    p_eval.add_argument("--rounds", type=int, default=GbtParams.rounds)
    p_eval.add_argument("--learning-rate", type=float, default=GbtParams.learning_rate)

    p_smooth = sub.add_parser("smooth", help="smooth one 0/1 sequence, print the trace")
    p_smooth.add_argument("--input", type=Path, default=None, help="file with the sequence; default stdin")

    p_rep = sub.add_parser("report", help="print a human-readable summary of report.json")
    p_rep.add_argument("--report", required=True, type=Path)

    return parser


def _cmd_synth(args: argparse.Namespace) -> int:
    from .synth import generate_corpus

    params = SynthParams(
        participants_per_class=args.participants_per_class,
        session_seconds=args.session_seconds,
        effect_size=args.effect_size,
        effect_location=args.effect_location,
        seed=args.seed,
    )
    sessions_dir, labels_path = generate_corpus(args.out, params)
    manifest = _meta("synth", dataclasses.asdict(params))
    (args.out / "synth_manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    print(f"wrote {2 * params.participants_per_class} sessions under {sessions_dir}")
    print(f"labels: {labels_path}")
    return 0


def _extract_session(session_dir: Path, labels: dict[str, int], decomp: DecompParams,
                     debug_dir: Path | None, meta: str) -> tuple[str | None, object, dict | None]:
    """One session of `extract`, on a pool worker: (None, its feature
    matrix, its diagnostics record), with the EDA decomposition dumped into
    debug_dir if one is given, or (the reason, None, None) for a session
    that raised PhysioBiasError."""
    from .eda import dump_components_csv
    from .features import extract_session_features
    from .ingest import assemble_session

    try:
        session = assemble_session(session_dir, labels)
        matrix, components = extract_session_features(session, decomp)
        if debug_dir is not None:
            debug_dir.mkdir(exist_ok=True)
            dump_components_csv(session["eda"], components,
                                debug_dir / f"{session_dir.name}.csv", meta=meta)
    except PhysioBiasError as exc:
        return str(exc), None, None
    record = {
        "participant": session_dir.name,
        "converged": components.converged,
        "iterations": components.iterations,
        "kkt_residual": components.kkt_residual,
        "residual_rms": components.residual_rms,
        "windows": len(matrix),
    }
    return None, matrix, record


def _cmd_extract(args: argparse.Namespace) -> int:
    from .dataset import write_csv
    from .features import FEATURE_COLUMNS
    from .ingest import load_labels
    from .pool import spawn_pool

    data_dir: Path = args.data_dir
    if not data_dir.is_dir():
        raise PhysioBiasError(f"{data_dir} is not a directory")
    session_dirs = sorted(p for p in data_dir.iterdir() if p.is_dir())
    if not session_dirs:
        raise PhysioBiasError(f"no session directories in {data_dir}")
    labels = load_labels(args.labels)
    decomp = DecompParams()
    args.out.mkdir(parents=True, exist_ok=True)
    debug_dir = args.out / "eda_debug"
    config = {
        "data_dir": str(data_dir),
        "labels": str(args.labels),
        "window_seconds": DEFAULT_WINDOW_SECONDS,
        "min_duration": MIN_SESSION_SECONDS,
        "decomposition": dataclasses.asdict(decomp),
    }
    meta = _meta("extract", config)

    job = partial(_extract_session, labels=labels, decomp=decomp,
                  debug_dir=debug_dir if args.debug_eda else None, meta=json.dumps(meta, sort_keys=True))
    extracted = []
    diagnostics = []
    failures = 0
    with spawn_pool(len(session_dirs)) as pool:
        for session_dir, (reason, matrix, record) in zip(session_dirs, pool.map(job, session_dirs)):
            if reason is not None:
                failures += 1
                print(f"skipping {session_dir.name}: {reason}", file=sys.stderr)
                continue
            extracted.append((session_dir.name, labels[session_dir.name], matrix))
            diagnostics.append(record)
            if not record["converged"]:
                print(f"warning: {record['participant']}: EDA decomposition did not "
                      f"converge in {record['iterations']} iterations", file=sys.stderr)

    if not extracted:
        raise PhysioBiasError("no usable sessions")

    write_csv(args.out / "features.csv", FEATURE_COLUMNS, extracted, meta)
    doc = {"meta": meta, "sessions": diagnostics}
    (args.out / "extract_diagnostics.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(record['windows'] for record in diagnostics)} windows x "
          f"{len(FEATURE_COLUMNS)} features for {len(extracted)} sessions -> {args.out / 'features.csv'}")
    if failures:
        print(f"{failures} session(s) skipped", file=sys.stderr)
        return 1
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .dataset import from_csv
    from .evaluation import TOP_N, evaluate

    if args.folds_parallel != 1:
        raise PhysioBiasError(f"--folds-parallel must be 1 (folds run in one process), "
                              f"got {args.folds_parallel}")
    data = from_csv(args.features)
    params = GbtParams(depth=args.depth, rounds=args.rounds, learning_rate=args.learning_rate)
    args.out.mkdir(parents=True, exist_ok=True)
    report = evaluate(data, params, seed=args.seed)
    config = {
        "features": str(args.features),
        "model": dataclasses.asdict(params),
        # The fixed importance rule, under the keys that earlier versions'
        # flags filled, so the meta line of a report does not change.
        "top_n": TOP_N,
        "importance_threshold": None,
        "seed": args.seed,
    }
    meta = _meta("evaluate", config)
    meta_line = "# " + json.dumps(meta, sort_keys=True)
    doc = {**report, "meta": meta}
    (args.out / "report.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    lines = [meta_line, "feature,fold_count"]
    lines += [f"{name},{count}" for name, count in report["importance_counts"].items()]
    (args.out / "importance_counts.csv").write_text("\n".join(lines) + "\n")

    lines = [meta_line, "feature,u_statistic,p_value,n_biased,n_unbiased,all_tied"]
    for s in report["group_stats"]:
        lines.append(f"{s['feature']},{s['u_statistic']!r},{s['p_value']!r},"
                     f"{s['n_biased']},{s['n_unbiased']},{s['all_tied']}")
    (args.out / "group_stats.csv").write_text("\n".join(lines) + "\n")

    pm = report["participant_metrics"]
    print(f"participants: {report['n_participants']}  baseline: {report['baseline']:.3f}")
    print(f"accuracy: {pm['accuracy']:.3f}  f1(biased): {pm['per_class']['1']['f1']:.3f}  "
          f"f1(unbiased): {pm['per_class']['0']['f1']:.3f}")
    print(f"report: {args.out / 'report.json'}")
    return 0


def _cmd_smooth(args: argparse.Namespace) -> int:
    from .smoothing import final_label, smooth_with_trace

    try:
        text = args.input.read_text() if args.input else sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PhysioBiasError(f"cannot read the sequence: {exc}") from None
    bad = re.search(r"[^01,\s]", text)
    if bad:
        at = bad.start()
        line = text.count("\n", 0, at) + 1
        column = at - text.rfind("\n", 0, at)
        raise PhysioBiasError(f"{args.input or '<stdin>'}:{line}:{column}: unexpected character "
                              f"{bad.group()!r}; a sequence holds only 0, 1, commas and whitespace")
    labels = [int(ch) for ch in text if ch in "01"]
    if not labels:
        raise PhysioBiasError("no 0/1 labels found in input")
    smoothed, trace = smooth_with_trace(labels)
    for line in trace:
        print(line)
    print("smoothed: " + "".join(map(str, smoothed)))
    print(f"final label: {final_label(smoothed)}")
    return 0


def _report_lines(doc: dict) -> list[str]:
    pm = doc["participant_metrics"]
    lines = [
        f"participants: {doc['n_participants']}   baseline: {doc['baseline']:.3f}",
        f"participant accuracy: {pm['accuracy']:.3f}",
    ]
    for cls in ("1", "0"):
        m = pm["per_class"][cls]
        name = "biased" if cls == "1" else "unbiased"
        lines.append(f"  {name:<9} precision {m['precision']:.3f}  recall {m['recall']:.3f}  f1 {m['f1']:.3f}")
    lines.append(f"window accuracy: {doc['window_metrics']['accuracy']:.3f}")
    if doc.get("end_fraction") is not None:
        lines.append(f"majority window at end (correct biased): {doc['end_fraction']:.3f}")
    reported = doc.get("importance_reported", [])
    lines.append(f"features above importance threshold ({doc['importance_threshold']:g}): {len(reported)}")
    lines += [f"  {name} ({doc['importance_counts'][name]} folds)" for name in reported[:15]]
    return lines


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        lines = _report_lines(json.loads(args.report.read_text()))
    except (OSError, ValueError, RecursionError) as exc:  # undecodable, bad or too deep JSON
        raise PhysioBiasError(f"{args.report}: {exc}") from None
    except (KeyError, TypeError, OverflowError) as exc:
        raise PhysioBiasError(f"{args.report}: not a physiobias report "
                              f"({type(exc).__name__}: {exc})") from None
    print("\n".join(lines))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "synth": _cmd_synth,
        "extract": _cmd_extract,
        "evaluate": _cmd_evaluate,
        "smooth": _cmd_smooth,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (PhysioBiasError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
