"""Exception types shared across the package, one per exit code the command line adds."""


class SingularMatrixError(ArithmeticError):
    """A matrix that precoder refuses to build a precoder for (see its module docstring).

    `index` is its position in the flattened stack (0 for a single matrix); it
    is None on the harness's message, which names the realization itself.
    """

    index: int | None = None


class ConfigurationError(ValueError):
    """Invalid simulation configuration (bad value, unknown key, broken constraint)."""
