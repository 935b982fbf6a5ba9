"""Exception types shared across the package."""


class MorphoptError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(MorphoptError, ValueError):
    """A parameter is outside its admissible range or inconsistent."""


class ConfigError(MorphoptError, ValueError):
    """Problem configuration file is malformed or fails validation."""


class SolverFailureError(MorphoptError, RuntimeError):
    """A solve's answer missed its backward-error certificate; ``residual``
    is the largest column residual norm."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class MatrixNotSPDError(MorphoptError, RuntimeError):
    """The operator's block Cholesky factorization broke down: not SPD."""


class NonFiniteValueError(MorphoptError, ArithmeticError):
    """An objective value or gradient is NaN or infinite."""
