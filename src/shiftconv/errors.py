"""Exception hierarchy shared by all shiftconv modules."""


class ShiftconvError(ValueError):
    """Base class for all package errors; a ValueError, as every one is bad input."""


class EmptyRange(ShiftconvError):
    """A prime segment contains no admissible prime."""


class InvalidDivisor(ShiftconvError):
    """A divisibility or primality precondition (m1 | q, a prime, distinct primes) is violated."""


class OverlappingRanges(ShiftconvError):
    """The two dyadic prime segments are not disjoint."""


class UnsupportedWeight(ShiftconvError):
    """Coefficient generation is only wired for weight 12."""


class InsufficientBase(ShiftconvError):
    """The base coefficient table is too short for the requested lift."""


class OutOfRange(ShiftconvError):
    """A size, index or parameter lies outside its allowed range."""
