"""Seeded fuzzing of the CLI's error boundary.

Every input the CLI accepts ends handled: in exit 0, in skipped sessions
(exit 1) or in one `error: <reason>` line (exit 2), never in an exception
that escapes `main` (RuntimeWarning included: the suite turns it into an
error, in the extract workers as well). Each test mutates copies of one kind
of input, from a 1 + 1 x 60 s corpus, with stdlib `random` under a fixed
seed, runs `main` on each copy in-process, and checks that what exit 0 or 1
wrote reads back. A failure names the seed and the mutations that failed.
The last two tests set each float flag of `synth` and `evaluate`, and each
integer flag of `evaluate`, to each of a fixed list of extremes.
"""
import random
import shutil
import types
from contextlib import contextmanager

import pytest

from physiobias import synth
from physiobias.cli import main
from physiobias.dataset import from_csv

SEED = 22

# Lines that replace a line of the input; "\xff" is written as that byte,
# which is not UTF-8.
TOKENS = ["nan", "inf", "1e400", "1_0", "#", "\xff", "1e-320", ""]

KINDS = ["flip-byte", "delete-byte", "replace-line", "delete-line", "duplicate-line",
         "truncate", "double-delimiter"]


def mutate(rng: random.Random, data: bytes) -> tuple[bytes, str]:
    """One random mutation of data, and what it did."""
    kind = rng.choice(KINDS)
    if kind in ("flip-byte", "delete-byte", "truncate"):
        at = rng.randrange(len(data))
        if kind == "flip-byte":
            bit = 1 << rng.randrange(8)
            return data[:at] + bytes([data[at] ^ bit]) + data[at + 1:], f"{kind} {at} ^ {bit}"
        if kind == "delete-byte":
            return data[:at] + data[at + 1:], f"{kind} {at}"
        return data[:at], f"{kind} at {at}"
    if kind == "double-delimiter":
        at = rng.choice([i for i, b in enumerate(data) if b in b",\n"])
        return data[:at + 1] + data[at:], f"{kind} {data[at:at + 1]!r} at {at}"
    lines = data.split(b"\n")
    at = rng.randrange(len(lines))
    if kind == "replace-line":
        token = rng.choice(TOKENS)
        lines[at] = token.encode("latin-1")
        return b"\n".join(lines), f"{kind} {at + 1} with {token!r}"
    if kind == "delete-line":
        del lines[at]
    else:
        lines.insert(at, lines[at])
    return b"\n".join(lines), f"{kind} {at + 1}"


def run_main(argv: list[str], capsys) -> tuple[int | str, str]:
    """main's exit code, or the exception that escaped it, and its stderr."""
    capsys.readouterr()
    try:
        rc = main(argv)
    except (Exception, SystemExit) as exc:  # whatever escapes is the finding
        rc = f"{type(exc).__name__} escaped main: {exc}"
    return rc, capsys.readouterr().err


def report_reads_back(path, capsys) -> bool:
    return run_main(["report", "--report", str(path)], capsys)[0] == 0


def features_read_back(path) -> set[str] | None:
    """The participants of features.csv at path, or None if it does not read
    back."""
    try:
        return set(from_csv(path).participant_ids)
    except Exception:
        return None


def check(failures: list[str], what: str, rc, err: str) -> bool:
    """Record a failure unless main returned 0, 1 or 2 without a traceback;
    whether it did."""
    if rc not in (0, 1, 2) or "Traceback" in err:
        failures.append(f"{what}: {rc!r} {err.strip()[-300:]!r}")
        return False
    return True


def assert_none(failures: list[str], target: str) -> None:
    assert not failures, f"seed {SEED}, {target}:\n" + "\n".join(failures)


@pytest.fixture(scope="module")
def fuzz_corpus(tmp_path_factory):
    """A 1 + 1 x 60 s corpus, its features.csv copied under two more ids per
    class (so that every fold trains), and the report.json evaluated on it."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["synth", "--out", str(root), "--participants-per-class", "1",
                 "--session-seconds", "60", "--seed", str(SEED)]) == 0
    assert main(["extract", "--data-dir", str(root / "sessions"), "--labels",
                 str(root / "labels.csv"), "--out", str(root / "extracted")]) == 0
    meta, header, *rows = (root / "extracted" / "features.csv").read_text().splitlines()
    rows += [f"{row.split(',', 1)[0]}b,{row.split(',', 1)[1]}" for row in rows]
    (root / "features.csv").write_text("\n".join([meta, header, *rows]) + "\n")
    assert main(["evaluate", "--features", str(root / "features.csv"), "--out",
                 str(root / "evaluated"), "--rounds", "2", "--depth", "2"]) == 0
    return root


def test_e4_channel_files(fuzz_corpus, tmp_path, capsys):
    """48 mutated sessions, one mutated channel file each, in one extract
    run: each session is extracted or skipped with a reason."""
    rng = random.Random(f"{SEED}-e4")
    sessions = tmp_path / "sessions"
    labels = (fuzz_corpus / "labels.csv").read_text().splitlines()
    category = dict(line.split(",") for line in labels[1:])
    mutations = {}
    for k in range(48):
        base = rng.choice(sorted(category))
        pid = f"M{k:02d}"
        shutil.copytree(fuzz_corpus / "sessions" / base, sessions / pid)
        path = rng.choice(sorted((sessions / pid).iterdir()))
        data, what = mutate(rng, path.read_bytes())
        path.write_bytes(data)
        mutations[pid] = f"{pid} ({base}) {path.name}: {what}"
        labels.append(f"{pid},{category[base]}")
    (tmp_path / "labels.csv").write_text("\n".join(labels) + "\n")

    out = tmp_path / "out"
    rc, err = run_main(["extract", "--data-dir", str(sessions), "--labels",
                        str(tmp_path / "labels.csv"), "--out", str(out)], capsys)
    failures = []
    if check(failures, "extract", rc, err):
        extracted = features_read_back(out / "features.csv") if rc != 2 else set()
        if extracted is None:
            failures.append("features.csv does not read back")
            extracted = set()
        failures += [f"{what}: neither extracted nor skipped" for pid, what in mutations.items()
                     if pid not in extracted and f"skipping {pid}: " not in err]
    assert_none(failures, "E4 channel files")


def test_labels_csv(fuzz_corpus, tmp_path, capsys):
    rng = random.Random(f"{SEED}-labels")
    failures = []
    for k in range(8):
        labels = tmp_path / f"labels{k}.csv"
        data, what = mutate(rng, (fuzz_corpus / "labels.csv").read_bytes())
        labels.write_bytes(data)
        out = tmp_path / f"out{k}"
        rc, err = run_main(["extract", "--data-dir", str(fuzz_corpus / "sessions"),
                            "--labels", str(labels), "--out", str(out)], capsys)
        if (check(failures, what, rc, err) and rc in (0, 1)
                and features_read_back(out / "features.csv") is None):
            failures.append(f"{what}: features.csv does not read back")
    assert_none(failures, "labels.csv")


def test_features_csv(fuzz_corpus, tmp_path, capsys):
    rng = random.Random(f"{SEED}-features")
    failures = []
    for k in range(30):
        features = tmp_path / f"features{k}.csv"
        data, what = mutate(rng, (fuzz_corpus / "features.csv").read_bytes())
        features.write_bytes(data)
        out = tmp_path / f"out{k}"
        rc, err = run_main(["evaluate", "--features", str(features), "--out", str(out),
                            "--rounds", "2", "--depth", "2"], capsys)
        if (check(failures, what, rc, err) and rc == 0
                and not report_reads_back(out / "report.json", capsys)):
            failures.append(f"{what}: report.json does not read back")
    assert_none(failures, "features.csv")


def test_report_json(fuzz_corpus, tmp_path, capsys):
    rng = random.Random(f"{SEED}-report")
    failures = []
    for k in range(17):
        report = tmp_path / f"report{k}.json"
        data, what = mutate(rng, (fuzz_corpus / "evaluated" / "report.json").read_bytes())
        report.write_bytes(data)
        check(failures, what, *run_main(["report", "--report", str(report)], capsys))
    assert_none(failures, "report.json")


def test_smooth_input(tmp_path, capsys):
    rng = random.Random(f"{SEED}-smooth")
    sequence = "\n".join(",".join(rng.choice("01") for _ in range(12)) for _ in range(6)) + "\n"
    failures = []
    for k in range(17):
        path = tmp_path / f"seq{k}.txt"
        data, what = mutate(rng, sequence.encode())
        path.write_bytes(data)
        check(failures, what, *run_main(["smooth", "--input", str(path)], capsys))
    assert_none(failures, "smooth input")


EXTREMES = ["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "0", "-1"]

FLOAT_FLAGS = [
    ("synth", "--session-seconds"),
    ("synth", "--effect-size"),
    ("evaluate", "--learning-rate"),
]


@contextmanager
def serial_pool(tasks):
    """spawn_pool's stand-in: the tasks run one after another in this process."""
    yield types.SimpleNamespace(map=map)


def flag_argv(fuzz_corpus, out, command: str) -> list[str]:
    """`synth` of a 1 + 1 x 60 s corpus, or `evaluate --rounds 2` of the
    fuzz corpus's features.csv."""
    if command == "synth":
        return ["synth", "--out", str(out), "--participants-per-class", "1",
                "--session-seconds", "60"]
    return ["evaluate", "--features", str(fuzz_corpus / "features.csv"),
            "--out", str(out), "--rounds", "2"]


def check_extremes(fuzz_corpus, tmp_path, capsys, command, flag, values):
    """`command` with `flag` at each of values, in one run each, ends in
    exit 0 or in exit 2 with stderr starting `error:`."""
    failures = []
    for k, value in enumerate(values):
        argv = flag_argv(fuzz_corpus, tmp_path / f"out{k}", command)
        rc, err = run_main([*argv, f"{flag}={value}"], capsys)
        if check(failures, f"{flag}={value}", rc, err) and not (
                rc == 0 or rc == 2 and err.startswith("error: ")):
            failures.append(f"{flag}={value}: exit {rc} {err.strip()[-300:]!r}")
    assert_none(failures, f"{command} {flag}")


@pytest.mark.parametrize("command, flag", FLOAT_FLAGS, ids=[f"{c}{f}" for c, f in FLOAT_FLAGS])
def test_float_flag_extremes(fuzz_corpus, tmp_path, capsys, monkeypatch, command, flag):
    """The flag at each of EXTREMES; synth's participants run in this process."""
    monkeypatch.setattr(synth, "spawn_pool", serial_pool)  # synth's own binding
    check_extremes(fuzz_corpus, tmp_path, capsys, command, flag, EXTREMES)


INT_EXTREMES = ["0", "-1", str(2**31), str(2**63)]

# --rounds stops at -1: a large round count trains for hours.
INT_FLAGS = [
    *[("evaluate", flag, INT_EXTREMES) for flag in ("--depth", "--seed")],
    ("evaluate", "--rounds", ["0", "-1"]),
]


@pytest.mark.parametrize("command, flag, values", INT_FLAGS,
                         ids=[f"{c}{f}" for c, f, _ in INT_FLAGS])
def test_integer_flag_extremes(fuzz_corpus, tmp_path, capsys, command, flag, values):
    check_extremes(fuzz_corpus, tmp_path, capsys, command, flag, values)
