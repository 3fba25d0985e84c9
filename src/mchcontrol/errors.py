"""Exception and warning types shared across the package."""


class MchControlError(Exception):
    """Base class for package errors."""


class DomainMismatchError(MchControlError, ValueError):
    """Array shape does not match the grid it is used with."""


class ConfigError(MchControlError, ValueError):
    """Invalid, missing, or unknown configuration data."""


class NumericsError(MchControlError, ArithmeticError):
    """Hard numerical failure: NaN/Inf state or an unusable linear solve."""

    def __init__(self, message, time_index=None):
        super().__init__(message)
        self.time_index = time_index


class KernelBuildError(MchControlError, OSError):
    """The compiled march kernel cannot be built: no C compiler, a compiler
    that fails, or no cache directory that can be written."""


class StabilityWarning(UserWarning):
    """Advisory: the explicit transport step exceeds its suggested CFL bound."""
