"""Exception types shared across the package, and the integer-argument rule."""

import numbers


class ConewalkError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class ValidationError(ConewalkError, ValueError):
    """An argument value the package does not take.  It is a ValueError,
    Python's error for a bad argument value, so a caller that catches
    ValueError from a backend factory or a parser catches it too."""

    code = "validation"


def integer(v, name: str, least: int | None = None) -> int:
    """v as a Python int, for an argument that must be an integer of at
    least least: a Python or numpy integer, not a bool.  Anything else
    raises ValidationError naming the argument."""
    if isinstance(v, numbers.Integral) and not isinstance(v, bool) and (least is None or v >= least):
        return int(v)
    bound = "" if least is None else f" >= {least}"
    raise ValidationError(f"{name} must be an integer{bound}, got {v!r}")


class AngleNotRepresentable(ConewalkError):
    code = "angle-not-representable"


class BoundaryPointError(ConewalkError):
    code = "boundary-point"


class DegenerateCorrelation(ConewalkError):
    code = "degenerate-correlation"


class InsufficientMoments(ConewalkError):
    code = "insufficient-moments"


class SingularAngle(ConewalkError):
    code = "singular-angle"


class DegreeTooHigh(ConewalkError):
    code = "degree-too-high"


class MomentNotFinite(ConewalkError):
    code = "moment-not-finite"


class ResonantDegree(ConewalkError):
    code = "resonant-degree"


class AngleOutOfRange(ConewalkError):
    code = "angle-out-of-range"


class StartNotInterior(ConewalkError):
    code = "start-not-interior"


class MomentCheckInvalid(ConewalkError):
    code = "moment-check-invalid"


class InsufficientSurvivors(ConewalkError):
    code = "insufficient-survivors"


class InternalError(ConewalkError):
    """Raised when a condition the theory guarantees fails to hold."""

    code = "internal-error"
