"""Exception types shared across the package."""

from __future__ import annotations


class ZetastripError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(ZetastripError, ValueError):
    """A configuration value violates a documented constraint."""


class PrecisionError(ZetastripError, ArithmeticError):
    """A requested tolerance cannot be met by the configured precision."""


class QuadratureNonConvergence(ZetastripError, ArithmeticError):
    """Adaptive refinement exhausted its panel budget before reaching tolerance."""

    def __init__(self, message: str, value: float, error_estimate: float) -> None:
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate

    def __reduce__(self):
        # Rebuilt from all three arguments, so a library caller's process pool can return it.
        return type(self), (str(self), self.value, self.error_estimate)


class CalibrationError(ZetastripError, ArithmeticError):
    """A least-squares calibration did not produce a trustworthy constant."""
