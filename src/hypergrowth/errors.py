"""Exception hierarchy shared across the package.

Two branches matter for callers: ``DataError`` covers everything wrong with
input data (parsing, validation, unfittable series), ``DomainError`` covers
numeric-domain violations (evaluation at or past a singularity, unattainable
ratio levels). The CLI maps these to distinct exit codes.
"""


class HypergrowthError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HypergrowthError):
    """A numeric operation was requested outside its valid domain."""


class NoSolutionError(DomainError):
    """A level-crossing equation has no solution in the valid domain."""


class DataError(HypergrowthError):
    """Input data is malformed, invalid, or insufficient."""


class ParseError(DataError):
    """A file could not be parsed; message carries the offending line."""


class ValidationError(DataError):
    """Parsed data violates a series invariant (positivity, ordering)."""


class FitRejectedError(DataError):
    """Regression produced parameters outside the growth-model family."""


class UnrepresentableError(DataError):
    """A statistic of the data falls outside float64's range in the data's own units."""


class InsufficientDataError(DataError):
    """Too few observations for the requested operation."""
