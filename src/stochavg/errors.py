"""Exception types shared across the package."""


class StochavgError(Exception):
    """Base class for all package errors."""


class ParseError(StochavgError):
    """Raised on malformed expression text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotPSDError(StochavgError):
    """A matrix expected to be positive semi-definite is not (beyond tolerance).

    A batched square root names the first offending ``row`` of its batch and
    that row's ``min_eigenvalue``; raised inside an integrator, the error also
    carries the ``path_index`` and the ``time`` of the state that gave the
    matrix.
    """

    def __init__(self, message, row=None, min_eigenvalue=None, path_index=None, time=None):
        super().__init__(message)
        self.row = row
        self.min_eigenvalue = min_eigenvalue
        self.path_index = path_index
        self.time = time


class StepTooLargeError(StochavgError):
    """Integration step violates the fast-oscillation resolution guard."""


class NonFiniteError(StochavgError):
    """A sample path left the finite range; never silently censored."""

    def __init__(self, message, path_index=None, time=None):
        super().__init__(message)
        self.path_index = path_index
        self.time = time


class ConfigError(StochavgError):
    """Configuration file or experiment parameters violate the schema."""
