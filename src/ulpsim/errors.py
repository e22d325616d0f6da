"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Matrix/vector dimensions do not line up for the requested operation."""


class SingularMatrixError(ArithmeticError):
    """A linear system is singular (or not positive definite) within tolerance."""


class DegeneratePrecoderError(ArithmeticError):
    """Raw precoding matrix has zero power and cannot be normalized."""


class ConfigurationError(ValueError):
    """Invalid simulation configuration (bad value, unknown key, broken constraint)."""
