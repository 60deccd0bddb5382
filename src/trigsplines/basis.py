"""Basis-function series with controlled truncation.

The cosine-type basis at harmonic k is

    v_k cos(kt) + cos_outer * sum_{m=1..M} (-1)^(m*I1)
        [ v_{mN+k} cos((mN+k)t) + cos_inner * v_{mN-k} cos((mN-k)t) ],

and the sine-type basis is the same with sines and the (sin_outer, sin_inner)
signs.  The infinite series is cut at M alias blocks.  :func:`alias_depth`
picks one M per build, shared by every harmonic, by the basis series and by
the interpolation factors, so that the two truncate consistently.

:func:`alias_grid` evaluates the factors of every harmonic's truncated series
in one pass.  It is the library's one representation of the series: the
interpolation factors, the spline's spectrum, evaluation and sampling all read
that grid.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import TruncationNotConverged, _record
from .factors import FactorFamily, factor_values
from .grid import GridSpec

# Default fixed summation order for families without a tail bound (r = 0).
DEFAULT_FIXED_M = 10_000

# Fewest alias blocks a tolerance-based truncation sums.
M_MIN = 4

# Soft cap on the elements of each temporary array, here and in the spline.
_CHUNK_ELEMENTS = 1 << 18


class TruncationPolicy(_record("TruncationPolicy", "tol m_max fixed_m")):
    """How to cut the alias series.

    ``tol`` is the target bound on every harmonic's discarded absolute tail;
    summation stops at the smallest m >= ``M_MIN`` whose tail bound is below
    it, capped at ``m_max`` (see :func:`alias_depth`).  Setting ``fixed_m``
    bypasses the tolerance logic entirely and sums exactly that many blocks;
    this is the only supported mode for the sinc-power family with r = 0,
    which has no tail bound.
    """

    __slots__ = ()

    def __new__(cls, tol: float = 1e-10, m_max: int = 20_000, fixed_m: int | None = None):
        if not tol > 0:
            raise ValueError(f"tol must be positive, got {tol!r}")
        try:
            m_max = operator.index(m_max)
            if fixed_m is not None:
                fixed_m = operator.index(fixed_m)
        except TypeError:
            raise ValueError("m_max and fixed_m must be integers") from None
        if m_max < M_MIN:
            raise ValueError(f"m_max must be >= {M_MIN}, got {m_max}")
        if fixed_m is not None and fixed_m < 1:
            raise ValueError(f"fixed_m must be a positive integer, got {fixed_m!r}")
        return super().__new__(cls, tol, m_max, fixed_m)


def _tail_bound(r: int, n_nodes: int, k: int, m: int) -> float:
    """Bound on sum_{m' > m} |v_{m'N+k}| + |v_{m'N-k}| for the sinc-power
    family with r >= 1, from |v_j| <= j**-(1+r) and an integral estimate; it
    grows with k and shrinks with m."""
    return ((m * n_nodes - k) ** -r + (m * n_nodes + k) ** -r) / (r * n_nodes)


def alias_depth(family: FactorFamily, n_nodes: int, policy: TruncationPolicy) -> int:
    """Number of alias blocks M that every harmonic of a build sums.

    ``fixed_m`` is used as given.  A custom table is summed to its end, so its
    series is exact.  Otherwise M is the smallest m >= ``M_MIN`` whose tail
    bound at the worst harmonic, k = (N-1)/2, is below ``tol``, capped at
    ``m_max``; the bound grows with k, so M meets ``tol`` at every harmonic.
    Basis series, interpolation factors and sampling all read M here, which
    is what keeps the truncated basis exactly proportional to the truncated
    factors at the interpolation nodes.

    Raises
    ------
    TruncationNotConverged
        For the sinc-power family with r = 0 (no tail bound) when no
        ``fixed_m`` was requested.
    """
    half = GridSpec(n_nodes).n_harmonics
    if policy.fixed_m is not None:
        return policy.fixed_m
    if family.table is not None:
        return (len(family.table) + half) // n_nodes
    if family.r == 0:
        raise TruncationNotConverged(
            "family has no tail bound (sinc power with r = 0); "
            "request fixed-M summation instead"
        )
    lo, hi = M_MIN - 1, policy.m_max
    # The bound is decreasing in m: bisect for the smallest admissible m.
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _tail_bound(family.r, n_nodes, half, mid) < policy.tol:
            hi = mid
        else:
            lo = mid
    return hi


def alias_grid(family: FactorFamily, n_nodes: int, policy: TruncationPolicy) -> np.ndarray:
    """Factors of the truncated series on the grid j = m*N + q.

    Row m, column q of the returned (M + 1) x N array, M from
    :func:`alias_depth`, holds v_j with j = m*N + q.  Column k
    (1 <= k <= (N-1)/2) carries v_k in row 0 and the aliases v_{mN+k} in rows
    m = 1..M; column N-k carries v_{mN-k} in row m - 1.  Column 0 and the last
    row of the columns N-k (m = M + 1) are zero.  Each factor is evaluated
    once.  The grid is stored column by column, so the aliases of one
    harmonic are contiguous and their sums run pairwise.
    """
    rows = alias_depth(family, n_nodes, policy) + 1
    columns = np.zeros((n_nodes, rows))
    step = max(1, _CHUNK_ELEMENTS // rows)
    for q in range(1, n_nodes, step):
        qs = np.arange(q, min(q + step, n_nodes))
        columns[qs] = factor_values(family, np.add.outer(qs, n_nodes * np.arange(rows)))
    columns[(n_nodes + 1) // 2 :, -1] = 0.0
    return columns.T
