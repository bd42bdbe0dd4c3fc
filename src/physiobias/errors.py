"""Exception types shared across the pipeline.

Every check on outside input (a flag, a file, a signal) raises a
PhysioBiasError subclass; `cli.main` alone turns one into `error: <reason>`
and exit 2, and `extract` skips the session that raised it. A worker
process that dies raises one too (WorkerDied), so `cli.main` reports it
the same way.
"""


class PhysioBiasError(Exception):
    """Base class for every error raised by this package."""


class ParseError(PhysioBiasError):
    """Unreadable or malformed input file: an E4 channel, labels.csv,
    features.csv, a `smooth` sequence or a report.json."""


class EmptySignal(ParseError):
    """E4 file with a valid header but zero data rows."""


class LabelError(PhysioBiasError):
    """Bad label: an unknown IAT category, a participant with no label or
    two in labels.csv, or features.csv windows of one participant with
    mixed labels or a label other than 0 or 1."""


class BadParticipantId(PhysioBiasError):
    """Participant id that would not survive a features.csv round trip: it
    holds a comma or a line break (any that str.splitlines splits at), or
    starts with '#'."""


class MissingChannel(PhysioBiasError):
    """Session directory lacks a required channel file."""


class InsufficientData(PhysioBiasError):
    """Too little signal to window, decompose, or evaluate."""


class ParamError(PhysioBiasError):
    """Invalid parameter combination."""


class DegenerateLabels(PhysioBiasError):
    """Training data contains a single class only."""


class ShapeError(PhysioBiasError):
    """Feature vector width does not match the model."""


class NoSessions(PhysioBiasError):
    """Data directory holds no session directory, or no usable one."""


class SignalError(PhysioBiasError, ValueError):
    """Signal with a non-positive rate, a bad shape or non-finite samples,
    or channels that do not start together."""


class WorkerDied(PhysioBiasError):
    """A `synth` or `extract` worker process died before it returned."""
