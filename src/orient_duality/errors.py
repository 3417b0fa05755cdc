"""Shared exception types.

Everything raised on purpose by this package derives from CalculatorError,
so callers (the CLI in particular) can tell expected failure modes apart
from genuine bugs.
"""


class CalculatorError(Exception):
    """Base class for all errors raised by this package."""


class RingMismatchError(CalculatorError):
    """Operands belong to different coefficient rings."""


class SpaceMismatchError(CalculatorError):
    """Operands live on different spaces, or a morphism does not fit."""


class TruncationUnsoundError(CalculatorError):
    """A computation would silently lose terms at the configured truncation.

    The calculator refuses instead of truncating: every value it does
    return is exact.
    """


class InternalConsistencyError(CalculatorError):
    """A derived quantity failed its defining identity.

    Raised when inputs that are supposed to satisfy the group-law axioms
    turn out not to (a sign of data corruption rather than user error).
    """


class ParseError(CalculatorError):
    """Malformed textual input (element, class, space or morphism literal)."""

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position
