"""Basis-function series with controlled truncation.

The cosine-type basis at harmonic k is

    v_k cos(kt) + cos_outer * sum_{m=1..M} (-1)^(m*I1)
        [ v_{mN+k} cos((mN+k)t) + cos_inner * v_{mN-k} cos((mN-k)t) ],

and the sine-type basis is the same with sines and the (sin_outer, sin_inner)
signs.  The infinite series is cut at M alias blocks; M is chosen from the
tail bound and a policy, and the same M is used for the basis series and for
the interpolation factors so that the two truncate consistently.

:func:`alias_grid` evaluates the factors of every harmonic's truncated series
in one pass; the spline, its interpolation factors and its sampling all read
that grid.  :func:`basis_cos` and :func:`basis_sin` sum one harmonic's series
directly, term by term, and are the reference the grid is tested against.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGrid, TruncationNotConverged
from .factors import FactorFamily, factor_at, factor_values, tail_bound

# Default fixed summation order for families without a tail bound (r = 0).
DEFAULT_FIXED_M = 10_000

# Fewest alias blocks a tolerance-based truncation sums.
M_MIN = 4

# Soft cap on the elements of each temporary array.
_CHUNK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class TruncationPolicy:
    """How to cut the alias series.

    ``tol`` is the target bound on the discarded absolute tail; summation
    stops at the smallest m >= ``M_MIN`` whose tail bound is below it, capped
    at ``m_max``.  Setting ``fixed_m`` bypasses the tolerance logic entirely
    and sums exactly that many blocks; this is the only supported mode for
    families with no tail bound (r = 0, or custom tables with no declared
    decay exponent).
    """

    tol: float = 1e-10
    m_max: int = 20_000
    fixed_m: int | None = None

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol!r}")
        try:
            object.__setattr__(self, "m_max", operator.index(self.m_max))
            if self.fixed_m is not None:
                object.__setattr__(self, "fixed_m", operator.index(self.fixed_m))
        except TypeError:
            raise ValueError("m_max and fixed_m must be integers") from None
        if self.m_max < M_MIN:
            raise ValueError(f"m_max must be >= {M_MIN}, got {self.m_max}")
        if self.fixed_m is not None and self.fixed_m < 1:
            raise ValueError(f"fixed_m must be a positive integer, got {self.fixed_m!r}")


def _check_harmonic(n_nodes: int, k: int) -> None:
    if n_nodes < 3 or n_nodes % 2 == 0:
        raise InvalidGrid(f"n_nodes must be odd and >= 3, got {n_nodes}")
    half = (n_nodes - 1) // 2
    if not 1 <= k <= half:
        raise ValueError(f"k must be in [1, {half}], got {k}")


def truncation_order(
    family: FactorFamily, n_nodes: int, k: int, policy: TruncationPolicy
) -> int:
    """Number of alias blocks M to sum for harmonic k under the policy.

    Every consumer of the series (basis evaluation, interpolation factors,
    spline sampling) obtains M through this function, which is what makes the
    truncated basis exactly proportional to the truncated factors at the
    interpolation nodes.

    Raises
    ------
    TruncationNotConverged
        If the family admits no tail bound and no ``fixed_m`` was requested.
    """
    _check_harmonic(n_nodes, k)
    if policy.fixed_m is not None:
        return policy.fixed_m

    lo = M_MIN
    b = tail_bound(family, n_nodes, k, lo)
    if math.isinf(b):
        raise TruncationNotConverged(
            "family has no tail bound (r = 0 or undeclared table decay); "
            "request fixed-M summation instead"
        )
    if b < policy.tol:
        return lo
    hi = policy.m_max
    if tail_bound(family, n_nodes, k, hi) >= policy.tol:
        return hi  # tolerance unreachable within the cap
    # Bound is nonincreasing in m: bisect for the smallest admissible m.
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail_bound(family, n_nodes, k, mid) < policy.tol:
            hi = mid
        else:
            lo = mid
    return hi


def alias_grid(family: FactorFamily, n_nodes: int, policy: TruncationPolicy) -> np.ndarray:
    """Factors of every harmonic's truncated series on the grid j = m*N + q.

    Row m, column q of the returned (M_max + 1) x N array holds v_j with
    j = m*N + q.  Column k (1 <= k <= (N-1)/2) carries v_k in row 0 and the
    aliases v_{mN+k} in rows m = 1..M_k; column N-k carries v_{mN-k} in row
    m - 1.  Entries past a harmonic's own order M_k, and column 0, are zero.
    Each factor is evaluated once.  The grid is stored column by column, so
    the aliases of one harmonic are contiguous and their sums run pairwise.
    """
    _check_harmonic(n_nodes, 1)
    n = (n_nodes - 1) // 2
    orders = np.array([truncation_order(family, n_nodes, k, policy) for k in range(1, n + 1)])
    rows = int(orders.max()) + 1
    columns = np.zeros((n_nodes, rows))
    step = max(1, _CHUNK_ELEMENTS // rows)
    for q in range(1, n_nodes, step):
        qs = np.arange(q, min(q + step, n_nodes))
        columns[qs] = factor_values(family, np.add.outer(qs, n_nodes * np.arange(rows)))
    columns[1 : n + 1, 0] = [factor_at(family, k) for k in range(1, n + 1)]
    depth = np.concatenate(([0], orders + 1, orders[::-1]))
    columns[np.arange(rows) >= depth[:, None]] = 0.0
    return columns.T


def _basis(family, signs, i1, n_nodes, k, t, policy, trig, outer, inner):
    _check_harmonic(n_nodes, k)
    if i1 not in (0, 1):
        raise ValueError(f"i1 must be 0 or 1, got {i1!r}")
    m = np.arange(1, truncation_order(family, n_nodes, k, policy) + 1)
    sign = outer * (1 - 2 * (m * i1 % 2))
    j = np.concatenate(([k], m * n_nodes + k, m * n_nodes - k))
    weights = np.concatenate((
        [factor_at(family, k)],
        sign * factor_values(family, m * n_nodes + k),
        sign * inner * factor_values(family, m * n_nodes - k),
    ))
    t_arr = np.asarray(t, dtype=float)
    tt = np.atleast_1d(t_arr).ravel()
    out = np.empty(tt.size)
    step = max(1, _CHUNK_ELEMENTS // j.size)
    for start in range(0, tt.size, step):
        out[start : start + step] = trig(np.outer(tt[start : start + step], j)) @ weights
    return float(out[0]) if t_arr.ndim == 0 else out


def basis_cos(family, signs, i1: int, n_nodes: int, k: int, t, policy: TruncationPolicy):
    """Cosine-type basis series at harmonic k, truncated per the policy.

    Parameters
    ----------
    family : FactorFamily
        Convergence factors v.
    signs : SignMatrix
        Sign-distribution element; only its cosine row enters here.
    i1 : int
        Crosslink grid index; contributes the (-1)^(m*i1) alternation.
    n_nodes : int
        Odd node count N.
    k : int
        Harmonic index, 1 <= k <= (N-1)/2.
    t : float or np.ndarray
        Evaluation angle(s).
    policy : TruncationPolicy
        Truncation control.
    """
    return _basis(
        family, signs, i1, n_nodes, k, t, policy, np.cos, signs.cos_outer, signs.cos_inner
    )


def basis_sin(family, signs, i1: int, n_nodes: int, k: int, t, policy: TruncationPolicy):
    """Sine-type basis series at harmonic k; parameters as in :func:`basis_cos`."""
    return _basis(
        family, signs, i1, n_nodes, k, t, policy, np.sin, signs.sin_outer, signs.sin_inner
    )
