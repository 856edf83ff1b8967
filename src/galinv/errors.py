"""Package-wide error types."""

from __future__ import annotations


class InconsistencyError(RuntimeError):
    """An internal cross-check failed.

    Raised when two routes that must agree exactly disagree, for example
    a radial reconstruction against its source symbol, or a classifier's
    coefficients against the operator they resynthesize.  This always
    signals a bug, never bad input.
    """
