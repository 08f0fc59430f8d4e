"""Exception types shared across the package."""


class CompoundBarrierError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CompoundBarrierError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NormalizationError(CompoundBarrierError, ValueError):
    """A (alpha, beta) pair violates |alpha|^2 - |beta|^2 = 1."""


class RapidityOverflowError(CompoundBarrierError, OverflowError):
    """A rapidity exceeded the range where double precision is trustworthy.

    Raised instead of silently propagating inf: cosh overflows doubles near
    theta ~ 710, and accuracy degrades long before that.
    """


class EmptySequenceError(CompoundBarrierError, ValueError):
    """An operation that needs at least one element received none."""


class OverlapError(CompoundBarrierError, ValueError):
    """Barrier supports in a scenario intersect."""


class DimensionError(CompoundBarrierError, ValueError):
    """An array or search has the wrong number of dimensions: a rapidity array
    that is not (n_rows, n), or too many phases for an exhaustive grid search."""


class TargetOutOfRangeError(CompoundBarrierError, ValueError):
    """A requested compound rapidity lies outside the attainable interval."""


class BoundViolationError(CompoundBarrierError, AssertionError):
    """A sampled or exact composition escaped its guaranteed interval.

    This signals a genuine bug (the bounds are theorems), so it is loud.
    """


class ParseError(CompoundBarrierError, ValueError):
    """A scenario document could not be parsed.

    Carries the 1-based line number and the offending field when known.
    """

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        where = []
        if line is not None:
            where.append(f"line {line}")
        if field is not None:
            where.append(f"field {field!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
