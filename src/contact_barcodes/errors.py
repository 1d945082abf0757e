"""Errors raised by library operations.

The domain errors derive from DomainError so the CLI can map domain
failures to a single exit code, distinct from I/O and parse failures.
ParseError, a ValueError, marks a document that cannot be read.
"""


class ParseError(ValueError):
    """A document is not a well-formed barcode or module."""


class DomainError(Exception):
    """Base class for all domain-level failures."""


class NonUniqueSnapError(DomainError):
    """A bar endpoint fell in a sample gap with no spectrum point to snap to."""


class EmptyHorizonError(DomainError):
    """The horizon window admits no valid sample position."""


class IndexOutOfRangeError(DomainError, IndexError):
    """A sample index is outside the module's grid."""


class InvalidModuleError(DomainError, ValueError):
    """A module fails validation, so no operation on it is defined."""


class HorizonMismatchError(DomainError, ValueError):
    """Two modules that must share one horizon do not."""


class NonPositiveDeltaError(DomainError, ValueError):
    """A scale parameter that must be positive is not."""


class NonPositiveDensityError(DomainError, ValueError):
    """A sample density that must be a positive integer is not."""


class InfiniteDeltaError(DomainError, ValueError):
    """An interleaving parameter that must be finite is infinite."""


class InvalidEllipsoidError(DomainError, ValueError):
    """Ellipsoid axes or horizon break their preconditions."""


class TooLargeError(DomainError):
    """An enumeration bound was exceeded; the brute-force search refuses to run."""


class ShapeMismatchError(DomainError):
    """Matrix shapes are inconsistent with the module dimensions."""


class OnSpectrumError(DomainError):
    """The parameter value lies on the spectrum, where the index is undefined."""


class InPiSpanError(DomainError):
    """The chosen class is supported on fully infinite bars only."""
