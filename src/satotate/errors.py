"""Exception types shared across the package."""


class SatotateError(Exception):
    """Base class for all domain errors raised by this package."""


class BadReduction(SatotateError):
    """The curve has bad reduction at the requested prime (p divides the conductor)."""


class SmallCharacteristic(SatotateError):
    """Short-model point counting requested for p <= 3."""


class AmbiguousOrder(SatotateError):
    """BSGS order search could not isolate a unique group order; signals a bug."""


class DeligneViolation(SatotateError):
    """|a_p| exceeds 2 p^((k-1)/2); the input data is corrupt."""


class MissingPrime(SatotateError):
    """A coefficient file lacks a good prime required for the requested range."""


class FormatError(SatotateError):
    """An angle cache or coefficient file is malformed."""


class RangeExceeded(SatotateError):
    """A query asked for x beyond the coverage of the angle series."""


class SearchExceeded(SatotateError):
    """A streaming prime search hit its ceiling without a match."""


class DegenerateFit(SatotateError):
    """Too few valid points for a least-squares fit."""
