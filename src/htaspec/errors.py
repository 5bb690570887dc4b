"""Exception hierarchy for htaspec: one class per failure the CLI reports.

    exit 2  InputError             malformed input file or output path
    exit 3  NonPhysicalParameters  no bound state (DomainError, an argument
                                   outside its domain, exits 3 too)
    exit 4  FitFailedError         no fit result
    exit 5  NumericError           a numeric scheme with no finite answer
"""


class HtaspecError(Exception):
    """Base class for all package errors."""


class DomainError(HtaspecError, ValueError):
    """Argument outside the mathematical domain (pole, negative radicand...)."""


class NonPhysicalParameters(HtaspecError, ValueError):
    """Parameter combination has no bound-state solution: no bound root, a
    negative radicand, or a level condition that degenerates (its
    denominator vanishes for this (n, l))."""


class NumericError(HtaspecError, ArithmeticError):
    """A numeric scheme failed to converge or has no finite answer (e.g. no
    finite NU K); message carries diagnostics."""


class FitFailedError(HtaspecError, RuntimeError):
    """No fit result: fewer usable levels than free parameters, no seeds, or
    no seed reaching a physical optimum."""


class InputError(HtaspecError, ValueError):
    """Malformed input data file."""
