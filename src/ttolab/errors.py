"""Exception types shared across the package."""


class TTOLabError(Exception):
    """Base class for every error raised by this package."""


class PoleHit(TTOLabError):
    """Evaluation point coincides with a pole of a rational function."""


class RootSolveError(TTOLabError):
    """Solutions of u = alpha failed a residual or modulus assertion."""


class QuadratureError(TTOLabError):
    """Circle quadrature could not reach the requested accuracy."""


class OutsideClosedDisc(TTOLabError):
    """Point lies outside the domain required by the operation."""


class SpaceMismatch(TTOLabError):
    """Objects attached to different model spaces were combined."""


class PoleOnCircle(TTOLabError):
    """A symbol's rational term has a pole on the unit circle."""


class NotATTO(TTOLabError):
    """Matrix failed the truncated Toeplitz membership test."""


class SingularMatrix(TTOLabError):
    """Matrix is numerically singular where invertibility is required."""


class AlphaOnCircle(TTOLabError):
    """Parameter alpha must lie strictly inside the unit disc."""


class AlphaNotUnimodular(TTOLabError):
    """Parameter alpha must lie on the unit circle."""


class SchemaError(TTOLabError):
    """Problem file failed structural validation."""


class NumericalFailure(TTOLabError):
    """A verified identity exceeded its stated tolerance."""
