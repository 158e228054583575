"""Exception hierarchy for the toolkit.

Every error raised by the package derives from SubunitLabError so callers
(and the CLI exit-code mapping) can catch by family.
"""


class SubunitLabError(Exception):
    """Base class for all package errors."""


class ConfigError(SubunitLabError):
    """Invalid configuration value or malformed config file."""

    def __init__(self, message, field_path=None):
        if field_path:
            message = f"{field_path}: {message}"
        super().__init__(message)
        self.field_path = field_path


class DomainError(SubunitLabError):
    """Argument outside the mathematical domain of an operation."""


class ProfileError(DomainError):
    """A degeneracy profile setting outside its domain; field names it
    (kind, param or domain_cap)."""

    def __init__(self, message, field):
        super().__init__(message)
        self.field = field


class MonotonicityError(SubunitLabError):
    """A sequence that must be monotone is not (signals a scheme bug)."""


class MeasurementError(SubunitLabError):
    """The grid cannot measure a ball: pipeline.run_ball skips it."""


class ResolutionError(MeasurementError):
    """Requested measurement is below the grid resolution floor."""


class RangeError(MeasurementError):
    """Requested radius or index leaves the measured range."""


class GeometryError(MeasurementError):
    """A geometric invariant failed beyond the allowed collar."""


class SolverError(SubunitLabError):
    """An iterative linear solve did not reach its tolerance."""


class EmptySupportError(SubunitLabError):
    """Functional requested for an identically zero function."""


class ZeroGradientError(SubunitLabError):
    """Q-gradient vanishes while the compared quantity does not."""


class PositivityError(SubunitLabError):
    """A function that must be positive on the relevant set is not."""


class ChainTooShortError(MeasurementError):
    """Fewer resolvable radii than the oscillation recursion needs."""


class SchemaMismatchError(SubunitLabError):
    """Two reports cannot be compared because their schemas differ."""
