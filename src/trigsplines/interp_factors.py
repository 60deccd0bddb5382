"""Interpolation factors: the per-harmonic constants of proportionality
between a basis series and the bare harmonic at interpolation-grid nodes.

At a node t_j of the kind-I2 grid, cos(mN*t_j) = (-1)^(m*I2) and
sin(mN*t_j) = 0, so every alias term of the cosine-type basis C_k and the
sine-type basis S_k collapses onto the order-k harmonic:

    C_k(t_j) = hc * cos(k t_j),    S_k(t_j) = hs * sin(k t_j),

with, writing J = (I1 + I2) mod 2 (algebraically equal to I1 - 2*I1*I2 + I2
on {0,1}^2),

    hc_k = v_k + cos_outer * sum_m (-1)^(mJ) (v_{mN+k} + cos_inner * v_{mN-k})
    hs_k = v_k + sin_outer * sum_m (-1)^(mJ) (v_{mN+k} - sin_inner * v_{mN-k}).

The sign flip on the sine side encodes sin((mN-k)t_j) = -(-1)^(m*I2)
sin(k t_j).  Dividing a basis series by its factor enforces interpolation.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DegenerateVariant
from .signs import SignMatrix

# A factor this small relative to v_k means the variant's spline divides by
# (numerically) zero at that harmonic.
DEGENERACY_RTOL = 1e-10


class FactorPair(NamedTuple):
    """hc_k and hs_k for k = 1..(N-1)/2."""

    hc: np.ndarray
    hs: np.ndarray


def interp_factors(grid: np.ndarray, signs: SignMatrix, i1: int, i2: int) -> FactorPair:
    """hc/hs of one classification variant from its alias grid,
    ``alias_grid(family, N, policy)`` of :mod:`trigsplines.basis`;
    (-1)^(mJ) splits each column by row parity.

    Raises
    ------
    DegenerateVariant
        At the first k whose |hc_k| or |hs_k| is at most
        ``max(DEGENERACY_RTOL * |v_k|, tiny)``, with v_k read off row 0 of the
        grid and tiny the smallest normal float; the variant's spline is
        undefined at that harmonic.  The exception carries the ungated factors.
    """
    if i1 not in (0, 1) or i2 not in (0, 1):
        raise ValueError(f"i1 and i2 must be 0 or 1, got {i1!r}, {i2!r}")
    n = (grid.shape[1] - 1) // 2
    s = 1 - 2 * ((i1 + i2) % 2)
    plus = grid[2::2, 1 : n + 1].sum(axis=0) + s * grid[1::2, 1 : n + 1].sum(axis=0)
    # Column N-k holds v_{mN-k} in row m - 1, so its even rows are odd m.
    minus = s * grid[0::2, :n:-1].sum(axis=0) + grid[1::2, :n:-1].sum(axis=0)
    v = grid[0, 1 : n + 1]
    pair = FactorPair(
        hc=v + signs.cos_outer * (plus + signs.cos_inner * minus),
        hs=v + signs.sin_outer * (plus - signs.sin_inner * minus),
    )
    scale = np.maximum(DEGENERACY_RTOL * np.abs(v), np.finfo(float).tiny)
    bad = np.column_stack((np.abs(pair.hc) <= scale, np.abs(pair.hs) <= scale))
    if bad.any():
        k, side = np.argwhere(bad)[0]
        raise DegenerateVariant(int(k) + 1, ("hc", "hs")[side], pair)
    return pair
