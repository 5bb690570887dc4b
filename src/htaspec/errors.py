"""Exception hierarchy for htaspec."""


class HtaspecError(Exception):
    """Base class for all package errors."""


class DomainError(HtaspecError, ValueError):
    """Argument outside the mathematical domain (pole, negative radicand...)."""


class NonPhysicalParameters(HtaspecError, ValueError):
    """Parameter combination has no bound-state solution.

    Carries the offending value so callers can report it.
    """

    def __init__(self, message: str, value=None):
        super().__init__(message)
        self.value = value


class DegenerateStateError(HtaspecError, ValueError):
    """Eigencondition denominator vanished for this (n, l)."""


class ConsistencyError(HtaspecError, ArithmeticError):
    """An internal cross-check failed (e.g. no K makes the NU radicand a perfect square)."""


class NumericError(HtaspecError, ArithmeticError):
    """A numeric scheme failed to converge; message carries diagnostics."""


class UnderdeterminedFitError(HtaspecError, ValueError):
    """Fewer usable levels than free parameters."""


class FitFailedError(HtaspecError, RuntimeError):
    """No seed produced a physical optimum."""


class InputError(HtaspecError, ValueError):
    """Malformed input data file."""
