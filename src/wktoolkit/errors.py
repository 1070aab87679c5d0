"""The two errors of the toolkit, one per exit code of the CLI.

InputError (exit 2) refuses invalid or inconsistent input; CapError
(exit 3) refuses an input past a size or search cap instead of truncating
the answer.  Both derive from ToolkitError, so one clause catches either.
"""


class ToolkitError(Exception):
    """Base class of all errors raised by this package."""


class InputError(ToolkitError):
    """Invalid or inconsistent input."""


class CapError(ToolkitError):
    """A size or search cap was exceeded; the input was rejected, not truncated."""
