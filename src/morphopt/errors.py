"""Exception types shared across the package."""


class MorphoptError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(MorphoptError, ValueError):
    """A parameter is outside its admissible range or inconsistent."""


class ConfigError(MorphoptError, ValueError):
    """Problem configuration file is malformed or fails validation."""


class SolverFailureError(MorphoptError, RuntimeError):
    """Iterative solver did not reach the requested tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class MatrixNotSPDError(MorphoptError, RuntimeError):
    """Operator produced nonpositive curvature inside conjugate gradients."""


class NonFiniteValueError(MorphoptError, ArithmeticError):
    """An objective value or gradient is NaN or infinite."""
