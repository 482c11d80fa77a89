"""Exception types shared across the package.

Three families matter to callers: scale guards (InfeasibleScale and its
subclass ExtensionTooLarge, which the CLI reports with exit code 3),
InvariantViolation (exit code 4), and malformed input, which is every
other Error (bad field parameters, mismatched carriers, broken tables;
exit code 2), so a new subclass is malformed input unless it derives
from one of the other two.
InvariantViolation is special: it is raised when two procedures that a
proved theorem says must agree fail to do so, which is either a bug or a
genuine counterexample, and is never silently reconciled.
"""


class Error(Exception):
    """Base class for all errors raised by this package."""


class NonPrimeCharacteristic(Error):
    pass


class ReducibleModulus(Error):
    pass


class SpecMismatch(Error):
    pass


class DivisionByZero(Error, ZeroDivisionError):
    pass


class DimensionMismatch(Error):
    pass


class OutOfRange(Error):
    pass


class IncompleteTable(Error):
    pass


class InvalidRankTable(Error):
    pass


class NotSubmodular(Error):
    pass


class WrongNullity(Error):
    pass


class GroundMismatch(Error):
    pass


class InfeasibleScale(Error):
    pass


class ExtensionTooLarge(InfeasibleScale):
    pass


class InvariantViolation(Error):
    """A theorem-backed internal check failed: bug or counterexample."""

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload

