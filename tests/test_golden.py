"""Golden outputs: the whole CLI chain, byte for byte.

`synth` -> `extract --debug-eda` -> `evaluate` -> `report` -> `smooth` run
in-process on a 2 + 2 x 60 s corpus, from inside a temporary directory with
relative paths, so that no absolute path reaches a file or stdout. Every
output file and each command's stdout and stderr must match the digests in
golden_outputs.json. A change that alters an output on purpose regenerates
them with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""
import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from physiobias.cli import main

GOLDEN = Path(__file__).with_name("golden_outputs.json")

CHAIN = {
    "synth": ["synth", "--out", "c", "--participants-per-class", "2",
              "--session-seconds", "60", "--seed", "1"],
    "extract": ["extract", "--data-dir", "c/sessions", "--labels", "c/labels.csv",
                "--out", "f", "--debug-eda"],
    "evaluate": ["evaluate", "--features", "f/features.csv", "--out", "e", "--rounds", "2",
                 "--depth", "2", "--learning-rate", "0.3", "--seed", "5"],
    "report": ["report", "--report", "e/report.json"],
    "smooth": ["smooth", "--input", "seq.txt"],
}
SEQUENCE = "0010111011100110111101\n"


def run_chain(readouterr) -> dict[str, bytes]:
    """Run the chain in the current directory; every output file under f/
    and e/ and each command's stdout and stderr, by name. `readouterr()`
    returns and resets what the command printed, as (stdout, stderr)."""
    Path("seq.txt").write_text(SEQUENCE)
    outputs = {}
    for name, argv in CHAIN.items():
        assert main(argv) == 0, name
        out, err = readouterr()
        outputs[f"{name}.stdout"] = out.encode()
        outputs[f"{name}.stderr"] = err.encode()
    for root in (Path("f"), Path("e")):
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            outputs[path.as_posix()] = path.read_bytes()
    return outputs


def digests(data: bytes) -> dict[str, str]:
    """The file's sha256, and 8 hex digits of each line's, to locate a change."""
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "lines": "".join(hashlib.sha256(line).hexdigest()[:8] for line in data.split(b"\n")),
    }


def first_difference(name: str, data: bytes, golden: dict[str, str]) -> str:
    lines = data.split(b"\n")
    want = [golden["lines"][i:i + 8] for i in range(0, len(golden["lines"]), 8)]
    for i, line in enumerate(lines):
        if i >= len(want) or hashlib.sha256(line).hexdigest()[:8] != want[i]:
            return f"{name}: first differing line {i + 1}: {line[:200]!r}"
    return f"{name}: {len(want) - len(lines)} line(s) missing at the end"


def test_cli_chain_outputs_match_the_golden_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    outputs = run_chain(capsys.readouterr)
    golden = json.loads(GOLDEN.read_text())
    assert sorted(outputs) == sorted(golden)
    mismatches = [first_difference(name, data, golden[name]) for name, data in outputs.items()
                  if digests(data)["sha256"] != golden[name]["sha256"]]
    assert not mismatches, "\n".join(mismatches)


if __name__ == "__main__":
    out, err = io.StringIO(), io.StringIO()

    def readouterr():
        printed = out.getvalue(), err.getvalue()
        for buffer in (out, err):
            buffer.seek(0)
            buffer.truncate()
        return printed

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            outputs = run_chain(readouterr)
    GOLDEN.write_text(json.dumps({name: digests(data) for name, data in outputs.items()},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} digests to {GOLDEN}")
