"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Matrix/vector dimensions do not line up for the requested operation."""


class SingularMatrixError(ArithmeticError):
    """A linear system is singular (or not positive definite) within tolerance.

    `index` is the failing system's position in the flattened stack that was
    solved (0 for a single system). solve_hermitian always sets it; it is None
    on errors raised elsewhere, such as the harness's per-realization message.
    """

    index: int | None = None


class DegeneratePrecoderError(ArithmeticError):
    """Raw precoding matrix has zero power and cannot be normalized."""


class ConfigurationError(ValueError):
    """Invalid simulation configuration (bad value, unknown key, broken constraint)."""
