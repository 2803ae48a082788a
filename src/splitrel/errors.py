"""Exception hierarchy shared across the toolkit.

Two failure families are distinguished so the command line front end can
map them to distinct exit codes: validation errors (malformed or
out-of-contract input, exit code 1) and computation degeneracies
(well-formed input on which the requested statistic does not exist,
exit code 2).
"""

__all__ = [
    "ToolkitError",
    "DomainViolation",
    "ShapeError",
    "TooSmall",
    "RangeError",
    "DegeneracyError",
    "ZeroVariance",
    "SingularMatrix",
    "Degenerate",
    "CrossCheckFailed",
]


class ToolkitError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class DomainViolation(ToolkitError):
    """A value lies outside its allowed domain (e.g. a non-binary cell)."""


class ShapeError(ToolkitError):
    """Ragged rows or mismatched dimensions."""


class TooSmall(ToolkitError):
    """Fewer examinees or items than the method requires."""


class RangeError(ToolkitError):
    """Numeric argument outside its documented interval."""


class DegeneracyError(ToolkitError):
    """Computation cannot proceed on this input; CLI exit code 2."""

    exit_code = 2


class ZeroVariance(DegeneracyError):
    """Observed variance is zero where a ratio requires it."""


class SingularMatrix(DegeneracyError):
    """Covariance matrix is singular or numerically indistinguishable from singular."""


class Degenerate(DegeneracyError):
    """No meaningful solution exists for this configuration."""


class CrossCheckFailed(DegeneracyError):
    """The F-test p-value's continued fraction did not converge."""
