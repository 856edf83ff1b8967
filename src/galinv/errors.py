"""Package-wide error types."""

from __future__ import annotations


class InconsistencyError(RuntimeError):
    """An internal cross-check failed.

    Raised when two routes that must agree exactly disagree, for example
    a rejecting decider whose witness search finds no witness, or a gauge
    normalization that misses its target form.  This always signals a
    bug, never bad input.
    """
