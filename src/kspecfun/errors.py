"""Exception types shared across the package."""

__all__ = ["DomainError", "PoleError", "ConvergenceError", "QuadratureError", "BracketError"]


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested at (or too close to) a pole."""


class ConvergenceError(RuntimeError):
    """A series or iteration failed to reach the requested tolerance.

    Carries the best available partial result so callers can inspect
    how far the computation got.
    """

    def __init__(self, message, value=None, error_estimate=None, terms_used=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.terms_used = terms_used


class QuadratureError(ConvergenceError):
    """Adaptive quadrature hit its subdivision limit.

    The best estimate obtained so far is attached; ``terms_used`` is the
    panel count.
    """


class BracketError(RuntimeError):
    """Root bracketing failed (no sign change found)."""
