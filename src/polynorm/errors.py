"""Exception types shared across the package."""


class PolynormError(Exception):
    """Base class for all polynorm errors."""


class InvalidParam(PolynormError, ValueError):
    """A parameter is outside its documented domain."""


class ZeroPolynomial(PolynormError, ValueError):
    """An operation that needs a nonzero polynomial got the zero polynomial."""


class NearCircleRoot(PolynormError, ArithmeticError):
    """A root sits too close to the unit circle for contour quadrature.

    The log integrand is singular on the contour; callers should fall back
    to the Jensen (root-based) evaluation, which stays well conditioned.
    """


class RootsNotConverged(PolynormError, ArithmeticError):
    """Root iteration ran out of its sweep budget before its stop test
    passed, so its iterates are not a root set to working accuracy (roots
    clustered within about 1e-3 of each other, at high degree)."""


class OutOfRange(PolynormError, OverflowError):
    """A computed value exceeds the floating-point range (or, past an
    overflow, is not a number)."""


class BandwidthExceeded(PolynormError, ValueError):
    """An exponential sum contains a frequency above the measure bandwidth."""


class RootInForbiddenRegion(PolynormError, ValueError):
    """A check requiring roots of modulus >= rho received a violating input."""


class NotRealValued(PolynormError, ValueError):
    """A check requiring a real-valued trigonometric polynomial got a complex one."""


class OnUnitCircle(PolynormError, ValueError):
    """The scalar identity is not evaluated on the unit circle (log singularity)."""


class ParseError(PolynormError, ValueError):
    """Malformed JSON input (length mismatch, unknown type tag, bad field)."""
