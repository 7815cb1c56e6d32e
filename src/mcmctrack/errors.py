"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, InputDataError -> 3,
NumericalError -> 4.
"""


class TrackingError(Exception):
    """Base class for all package errors."""


class ConfigError(TrackingError):
    """Invalid configuration value; message names the offending field."""


class InputDataError(TrackingError):
    """Missing or malformed input data (files, frames, dimensions)."""


class NumericalError(TrackingError):
    """Numerical failure (non-invertible innovation, indefinite covariance)."""


class SingularStateError(NumericalError):
    """State fell inside the gravitational singularity guard radius."""


class DegenerateUpdateError(NumericalError):
    """Every candidate child carried zero posterior mass."""


class InvalidEventError(TrackingError):
    """Association event inconsistent with its parent hypothesis."""


class EnumerationLimitError(ConfigError):
    """Exhaustive enumeration would exceed the configured instance limits."""


def check_count(value: object, name: str, least: int) -> None:
    """The one rule for a config count: ConfigError naming name unless value
    is an int, not a bool, and at least least."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}")
