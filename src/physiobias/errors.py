"""The one exception type of the pipeline.

Every check on outside input (a flag, a file, a signal) raises a
PhysioBiasError whose message is the reason a user reads; `cli.main` alone
turns one into `error: <reason>` and exit 2, and `extract` skips the
session that raised it. A worker process that dies raises one too, so
`cli.main` reports it the same way.
"""


class PhysioBiasError(Exception):
    """Rejected input or a failed worker; the message says why."""
