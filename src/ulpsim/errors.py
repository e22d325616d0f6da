"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Matrix/vector dimensions do not line up for the requested operation."""


class SingularMatrixError(ArithmeticError):
    """A matrix is singular, indefinite or non-finite within precoder's one spectral rule.

    `index` is the failing matrix's position in the flattened stack whose
    spectrum was tested (0 for a single matrix). precoder.solve_hermitian and
    precoder.spectral_gains always set it; it is None on the harness's
    message, which names the realization itself.
    """

    index: int | None = None


class DegeneratePrecoderError(ArithmeticError):
    """Raw precoding matrix has zero power and cannot be normalized."""


class ConfigurationError(ValueError):
    """Invalid simulation configuration (bad value, unknown key, broken constraint)."""
