"""Empatica E4 session parsing, IAT label mapping, and session assembly.

E4 CSV layout: line 1 holds the initial unix timestamp, line 2 the sampling
rate, and every following line one sample. ACC.csv carries three
comma-separated columns (x, y, z) in device counts; 64 counts equal 1 g.
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import (
    BadParticipantId,
    EmptySignal,
    InsufficientData,
    LabelError,
    MissingChannel,
    ParseError,
)
from .signals import Signal

# Empatica convention; the device stores acceleration as signed counts.
ACC_COUNTS_PER_G = 64.0

# Sessions shorter than this after alignment carry too few windows to use.
MIN_SESSION_SECONDS = 30.0

# Physically plausible sample ranges of the E4 sensors, (low, high, unit) in
# the parsed units; EDA keeps 0, which lost skin contact reads. BVP and HR
# have no range.
PLAUSIBLE_RANGES = {
    "EDA": (0.0, 100.0, "uS"),
    "ACC": (-2.0, 2.0, "g"),
    "TEMP": (-40.0, 115.0, "degC"),
}

# Rows that write_e4_csv formats per write: about 1 MB of text for BVP.
WRITE_BLOCK_ROWS = 65_536

CHANNEL_FILES = {
    "eda": "EDA.csv",
    "bvp": "BVP.csv",
    "hr": "HR.csv",
    "skt": "TEMP.csv",
    "acc": "ACC.csv",
}

_BIASED_TOKENS = frozenset({"strong", "moderate"})
_UNBIASED_TOKENS = frozenset({"slight", "no"})

#: The eight IAT result strings, four biased then four unbiased, in the
#: order synth cycles through each class. The leading token alone decides
#: the binary label.
IAT_CATEGORIES = (
    "strong preference for White",
    "moderate preference for Black",
    "strong preference for Black",
    "moderate preference for White",
    "slight preference for White",
    "no preference for Black",
    "slight preference for Black",
    "no preference for White",
)


@dataclass
class RawSession:
    """One participant's aligned raw recording with its label."""

    participant_id: str
    eda: Signal
    bvp: Signal
    hr: Signal
    skt: Signal
    acc: Signal  # (N, 3) rows of (x, y, z) in g
    label: int  # 1 biased, 0 unbiased


def _parse_header_line(line: str, path: Path, lineno: int, ncols: int) -> float:
    parts = [p.strip() for p in line.split(",")]
    if len(parts) != ncols:
        raise ParseError(f"{path}:{lineno}: expected {ncols} header value(s), got {len(parts)}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ParseError(f"{path}:{lineno}: non-numeric header {line!r}") from None
    if any(v != values[0] for v in values[1:]):
        raise ParseError(f"{path}:{lineno}: per-axis header values differ: {line!r}")
    if not np.isfinite(values[0]):
        raise ParseError(f"{path}:{lineno}: non-finite header value {line!r}")
    return values[0]


def _data_lines(path: Path):
    """(line number, text) of every line that loadtxt reads as a data row:
    each non-empty line after the two header lines."""
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if lineno > 2 and line:
                yield lineno, line


def _is_number(field: str) -> bool:
    """Whether loadtxt reads the field as a float: what float() reads, but
    without underscores or non-ASCII characters between the outer
    whitespace."""
    field = field.strip()
    if not field.isascii() or "_" in field:
        return False
    try:
        float(field)
    except ValueError:
        return False
    return True


def _bad_row(path: Path, ncols: int, reason: str) -> ParseError:
    """The error for the first data line that loadtxt cannot read as ncols
    numbers, or, if none, for the file with loadtxt's reason."""
    for lineno, line in _data_lines(path):
        parts = line.split(",")
        if len(parts) != ncols:
            return ParseError(f"{path}:{lineno}: expected {ncols} column(s), got {len(parts)}")
        if not all(map(_is_number, parts)):
            return ParseError(f"{path}:{lineno}: non-numeric row {line!r}")
    return ParseError(f"{path}: {reason}")


def parse_e4_csv(path: str | Path, channel: str) -> Signal:
    """Parse one E4 channel file.

    The two header lines are read one by one and the samples by one
    np.loadtxt call. Lines end at \n, \r\n or \r; an empty line is skipped
    but counted, so every line number is the line's in the file. A data
    line is a row of comma-separated numbers as loadtxt reads them: a line
    of whitespace, a `#` line, or a number with an underscore is malformed.

    Args:
        path: CSV file in E4 layout.
        channel: one of EDA, BVP, HR, TEMP, ACC (case-insensitive).

    Returns:
        Signal with (N,) samples, or (N, 3) for ACC (in g: counts divided by
        ACC_COUNTS_PER_G).

    Raises:
        ParseError: unreadable or undecodable file, malformed header,
            non-numeric row, wrong column count, non-finite sample, or a
            sample outside the channel's PLAUSIBLE_RANGES (with line number
            and channel).
        EmptySignal: header present but no data rows.
        SignalError: a BVP or HR sample at or above signals.MAX_ABS_SAMPLE
            in magnitude.
    """
    path = Path(path)
    channel = channel.upper()
    if channel not in {"EDA", "BVP", "HR", "TEMP", "ACC"}:
        raise ValueError(f"unknown channel {channel!r}")
    ncols = 3 if channel == "ACC" else 1

    try:
        with path.open() as fh:
            header = [fh.readline(), fh.readline()]
            if not header[1]:
                raise ParseError(f"{path}: file has no header (need timestamp and rate lines)")
            start_time = _parse_header_line(header[0].rstrip("\n"), path, 1, ncols)
            rate = _parse_header_line(header[1].rstrip("\n"), path, 2, ncols)
            if rate <= 0:
                raise ParseError(f"{path}:2: sample rate must be > 0, got {rate}")
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read: {exc}") from None
    except ValueError as exc:
        raise _bad_row(path, ncols, str(exc)) from None
    if data.size == 0:
        raise EmptySignal(f"{path}: no data rows")
    if data.shape[1] != ncols:  # every row one width, but not the channel's
        raise _bad_row(path, ncols, f"expected {ncols} column(s)")

    if channel == "ACC":
        data /= ACC_COUNTS_PER_G
    lo, hi, unit = PLAUSIBLE_RANGES.get(channel, (-np.inf, np.inf, ""))
    bad = ~(np.isfinite(data) & (data >= lo) & (data <= hi))
    if bad.any():
        row, col = np.argwhere(bad)[0]
        value = data[row, col]
        lineno = next(islice(_data_lines(path), row, None))[0]
        if not np.isfinite(value):
            raise ParseError(f"{path}:{lineno}: non-finite {channel} sample")
        raise ParseError(f"{path}:{lineno}: {channel} sample {value:g} {unit} is outside "
                         f"the plausible range [{lo:g}, {hi:g}] {unit}")
    return Signal(start_time=start_time, rate=rate, samples=data if ncols == 3 else data[:, 0])


def write_e4_csv(signal: Signal, path: str | Path) -> None:
    """Write a signal back to E4 CSV layout (inverse of parse_e4_csv).

    Every sample is written as its shortest round-tripping repr, formatted
    and joined by C-level map/join over WRITE_BLOCK_ROWS rows at a time, so
    the transient memory stays bounded whatever the session length."""
    samples = signal.samples
    ncols = 3 if samples.ndim == 2 else 1
    with Path(path).open("w") as fh:
        fh.write(",".join([repr(float(signal.start_time))] * ncols) + "\n")
        fh.write(",".join([repr(float(signal.rate))] * ncols) + "\n")
        for start in range(0, samples.shape[0], WRITE_BLOCK_ROWS):
            block = samples[start:start + WRITE_BLOCK_ROWS]
            if ncols == 3:
                cells = list(map(repr, (block * ACC_COUNTS_PER_G).ravel().tolist()))
                lines = map(",".join, zip(cells[0::3], cells[1::3], cells[2::3]))
            else:
                lines = map(repr, block.tolist())
            fh.write("\n".join(lines) + "\n")


def map_iat_category(category: str) -> int:
    """Map an IAT category string to the binary bias label: 1 biased, 0
    unbiased.

    Strong and moderate preferences are biased; slight and no preferences
    are unbiased. Matching is case-insensitive on the leading token.

    Raises:
        LabelError: token outside the IAT vocabulary.
    """
    tokens = category.strip().split()
    if not tokens:
        raise LabelError("empty IAT category")
    head = tokens[0].lower()
    if head in _BIASED_TOKENS:
        return 1
    if head in _UNBIASED_TOKENS:
        return 0
    raise LabelError(f"unrecognized IAT category {category!r}")


def load_labels(path: str | Path) -> dict[str, int]:
    """Read the labels CSV (header: participant_id,iat_category).

    Raises:
        ParseError: unreadable or undecodable file, or a bad header or row.
        LabelError: a duplicate participant or an unknown IAT category.
    """
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            fieldnames = reader.fieldnames
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: cannot read: {exc}") from None
    if fieldnames is None or not {"participant_id", "iat_category"} <= set(fieldnames):
        raise ParseError(f"{path}: expected header 'participant_id,iat_category'")
    labels: dict[str, int] = {}
    for row in rows:
        pid = (row["participant_id"] or "").strip()
        if not pid:
            raise ParseError(f"{path}: row with empty participant_id")
        if pid in labels:
            raise LabelError(f"{path}: duplicate label for participant {pid!r}")
        labels[pid] = map_iat_category(row["iat_category"] or "")
    return labels


def _trim(sig: Signal, t0: float, t1: float) -> Signal:
    """Trim to samples whose timestamps lie in [t0, t1)."""
    n = sig.samples.shape[0]
    i0 = max(0, int(np.ceil((t0 - sig.start_time) * sig.rate - 1e-9)))
    i1 = min(n, int(np.ceil((t1 - sig.start_time) * sig.rate - 1e-9)))
    if i1 <= i0:
        raise InsufficientData("signal does not overlap the common interval")
    return Signal(
        start_time=sig.start_time + i0 / sig.rate,
        rate=sig.rate,
        samples=sig.samples[i0:i1],
    )


def assemble_session(
    session_dir: str | Path,
    labels: dict[str, int],
    min_duration: float = MIN_SESSION_SECONDS,
) -> RawSession:
    """Parse one session directory into an aligned, labeled RawSession.

    The five channels are trimmed to their maximal common time interval;
    nothing is ever padded. The directory name is the participant id.

    Raises:
        BadParticipantId: the directory name holds a comma or a line break,
            or starts with '#', any of which would break features.csv.
        MissingChannel: a channel file is absent.
        LabelError: the participant has no label.
        InsufficientData: the common interval is shorter than min_duration.
    """
    session_dir = Path(session_dir)
    participant_id = session_dir.name
    if any(ch in participant_id for ch in ",\n\r") or participant_id.startswith("#"):
        raise BadParticipantId(
            f"participant id {participant_id!r} holds a comma or line break, "
            "or starts with '#', which features.csv cannot carry"
        )
    if participant_id not in labels:
        raise LabelError(f"no label for participant {participant_id!r}")

    parsed: dict[str, Signal] = {}
    for name, filename in CHANNEL_FILES.items():
        fpath = session_dir / filename
        if not fpath.exists():
            raise MissingChannel(f"{participant_id}: missing {filename}")
        parsed[name] = parse_e4_csv(fpath, filename.removesuffix(".csv"))

    t0 = max(s.start_time for s in parsed.values())
    t1 = min(s.end_time for s in parsed.values())
    if t1 - t0 < min_duration:
        raise InsufficientData(
            f"{participant_id}: common interval {max(t1 - t0, 0.0):.1f}s "
            f"is below the {min_duration:.0f}s minimum"
        )
    trimmed = {name: _trim(s, t0, t1) for name, s in parsed.items()}

    return RawSession(
        participant_id=participant_id,
        eda=trimmed["eda"],
        bvp=trimmed["bvp"],
        hr=trimmed["hr"],
        skt=trimmed["skt"],
        acc=trimmed["acc"],
        label=labels[participant_id],
    )
