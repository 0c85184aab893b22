"""Exception types shared across the package."""


class KkbecError(Exception):
    """Base class for all package-specific errors."""


class StabilityError(KkbecError):
    """A real excitation energy was requested where E^2 < 0 (tachyonic mode)."""


class DegenerateModeError(KkbecError):
    """Bogoliubov amplitudes are undefined for a zero-energy mode."""


class OracleError(KkbecError):
    """The brute-force BdG diagonalization failed to produce usable spectra."""


class ValidityError(KkbecError):
    """A mode gap exceeds the cutoff energy scale m*c_s^2."""


class DomainError(KkbecError):
    """Argument outside the mathematical domain of a special function."""


class QuadratureError(KkbecError):
    """Oscillatory quadrature did not converge within its step ladder.

    Carries the best available estimate so callers can decide whether the
    partial result is still useful.
    """

    def __init__(self, message, partial_value=None, error_estimate=None):
        super().__init__(message)
        self.partial_value = partial_value
        self.error_estimate = error_estimate
