"""Exception taxonomy shared by the whole package.

The CLI maps these onto exit codes: configuration and file-format problems
exit with 2, as do the OSErrors of the file system, numerical failures with 3.
"""


class ThermotomoError(Exception):
    """Base class for all package errors."""


class ConfigurationError(ThermotomoError):
    """Inconsistent or invalid setup: grid mismatches, bad geometry, bad config keys."""


class DomainError(ConfigurationError):
    """A point or index falls outside the domain it must lie in."""


class FormatError(ThermotomoError):
    """Malformed binary file. Carries a byte offset where parsing failed."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NumericalError(ThermotomoError):
    """Base class for runtime numerical failures."""


class ConvergenceError(NumericalError):
    """Solver missed its residual tolerance. Carries the final residual."""

    def __init__(self, message, residual=None):
        if residual is not None:
            message = f"{message} (final residual {residual:.3e})"
        super().__init__(message)
        self.residual = residual


class InstabilityError(NumericalError):
    """Non-finite values appeared during time stepping."""


class CompatibilityError(NumericalError):
    """Cauchy data and boundary trace disagree where they must match."""


class DegenerateInputError(NumericalError):
    """Input is valid in type but degenerate in value (zero norm, empty range)."""


class TangencyError(NumericalError):
    """Ray is tangent to the surface within tolerance; reflection/refraction undefined."""


class CriticalAngleError(NumericalError):
    """Incidence within tolerance of the critical angle; transmission undetermined."""
