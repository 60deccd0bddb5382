"""Basis-function series with controlled truncation.

The cosine-type basis at harmonic k is

    v_k cos(kt) + cos_outer * sum_{m=1..M} (-1)^(m*I1)
        [ v_{mN+k} cos((mN+k)t) + cos_inner * v_{mN-k} cos((mN-k)t) ],

and the sine-type basis is the same with sines and the (sin_outer, sin_inner)
signs.  The infinite series is cut at M alias blocks.  :func:`alias_depth`
picks one M per build, shared by every harmonic, by the basis series and by
the interpolation factors, so that the two truncate consistently.

:func:`alias_grid` evaluates the factors of every harmonic's truncated series
in one pass; the spline, its interpolation factors and its sampling all read
that grid.  :func:`basis_cos` and :func:`basis_sin` sum one harmonic's series
directly, term by term, and are the reference the grid is tested against.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGrid, TruncationNotConverged
from .factors import CUSTOM_TABLE, FactorFamily, factor_values

# Default fixed summation order for families without a tail bound (r = 0).
DEFAULT_FIXED_M = 10_000

# Fewest alias blocks a tolerance-based truncation sums.
M_MIN = 4

# Soft cap on the elements of each temporary array.
_CHUNK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class TruncationPolicy:
    """How to cut the alias series.

    ``tol`` is the target bound on every harmonic's discarded absolute tail;
    summation stops at the smallest m >= ``M_MIN`` whose tail bound is below
    it, capped at ``m_max`` (see :func:`alias_depth`).  Setting ``fixed_m``
    bypasses the tolerance logic entirely and sums exactly that many blocks;
    this is the only supported mode for the sinc-power family with r = 0,
    which has no tail bound.
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
    _check_harmonic(n_nodes, 1)
    half = (n_nodes - 1) // 2
    if policy.fixed_m is not None:
        return policy.fixed_m
    if family.kind == CUSTOM_TABLE:
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


def _basis(family, signs, i1, n_nodes, k, t, policy, trig, outer, inner):
    _check_harmonic(n_nodes, k)
    if i1 not in (0, 1):
        raise ValueError(f"i1 must be 0 or 1, got {i1!r}")
    m = np.arange(1, alias_depth(family, n_nodes, policy) + 1)
    sign = outer * (1 - 2 * (m * i1 % 2))
    j = np.concatenate(([k], m * n_nodes + k, m * n_nodes - k))
    weights = np.concatenate(([1], sign, sign * inner)) * factor_values(family, j)
    t_arr = np.asarray(t, dtype=float)
    tt = np.atleast_1d(t_arr).ravel()
    out = np.empty(tt.size)
    step = max(1, _CHUNK_ELEMENTS // j.size)
    for start in range(0, tt.size, step):
        out[start : start + step] = trig(np.outer(tt[start : start + step], j)) @ weights
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


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
        Evaluation angle(s); the result is a float or an array of their shape.
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
