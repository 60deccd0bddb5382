"""Exception types and the record base shared across the package."""

from collections import namedtuple


def _record(typename: str, field_names: str) -> type:
    """Named-tuple base whose ``_make``, and so ``_replace``, calls ``cls.__new__``."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class TrigSplineError(Exception):
    """Base class for all library-specific errors."""


class InvalidGrid(TrigSplineError):
    """Node count or grid kind violates the uniform-grid contract."""


class UnknownElement(TrigSplineError):
    """Sign-distribution label outside A1..D4."""


class TruncationNotConverged(TrigSplineError):
    """Tolerance-based truncation requested for a family with no usable tail bound."""


class DegenerateVariant(TrigSplineError):
    """An interpolation factor is numerically zero; the variant's spline is undefined
    at that harmonic.  ``pair`` holds the variant's ungated hc/hs factors."""

    def __init__(self, k: int, which: str, pair):
        self.k = k
        self.which = which
        self.pair = pair
        super().__init__(f"interpolation factor {which}[k={k}] is numerically zero")


class SolverFailure(TrigSplineError):
    """Cyclic tridiagonal solve did not meet the residual requirement."""
