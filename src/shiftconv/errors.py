"""Exception hierarchy shared by all shiftconv modules."""


class ShiftconvError(Exception):
    """Base class for all package errors."""


class NonInvertible(ShiftconvError):
    """gcd(a, q) > 1, so a has no inverse mod q."""


class EmptyRange(ShiftconvError):
    """A prime segment contains no admissible prime."""


class InvalidDivisor(ShiftconvError):
    """A divisibility precondition (e.g. m1 | q) is violated."""


class OverlappingRanges(ShiftconvError):
    """The two dyadic prime segments are not disjoint."""


class UnsupportedWeight(ShiftconvError):
    """Coefficient generation is only wired for weight 12."""


class InsufficientBase(ShiftconvError):
    """The base coefficient table is too short for the requested lift."""


class OutOfRange(ShiftconvError):
    """A requested index exceeds the table range."""
