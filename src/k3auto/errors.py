"""The two failures a user can cause, and the exit code of each.

``cli.main`` maps ``VerificationFailure`` to exit 1 and ``InputError`` to
exit 2.  Any other exception is a bug in k3auto.  Both derive from
``ValueError``, the class the loaders catch to attach a line number.
"""
from __future__ import annotations


class InputError(ValueError):
    """Malformed or out-of-bounds input; ``line`` is its line in the file, if any."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class VerificationFailure(ValueError):
    """Computation finished but the verified property does not hold."""
