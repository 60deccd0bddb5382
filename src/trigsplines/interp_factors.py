"""Interpolation factors: the per-harmonic constants of proportionality
between a basis series and the bare harmonic at interpolation-grid nodes.

At a node t_j of the kind-I2 grid, cos(mN*t_j) = (-1)^(m*I2) and
sin(mN*t_j) = 0, so every alias term collapses onto the order-k harmonic:

    basis_cos(t_j) = hc * cos(k t_j),    basis_sin(t_j) = hs * sin(k t_j),

with, writing J = (I1 + I2) mod 2 (algebraically equal to I1 - 2*I1*I2 + I2
on {0,1}^2),

    hc_k = v_k + cos_outer * sum_m (-1)^(mJ) (v_{mN+k} + cos_inner * v_{mN-k})
    hs_k = v_k + sin_outer * sum_m (-1)^(mJ) (v_{mN+k} - sin_inner * v_{mN-k}).

The sign flip on the sine side encodes sin((mN-k)t_j) = -(-1)^(m*I2)
sin(k t_j).  Dividing a basis series by its factor enforces interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import TruncationPolicy, alias_grid, basis_cos, basis_sin
from .errors import DegenerateVariant, NoUsableNode
from .factors import FactorFamily
from .grid import GridSpec, nodes
from .signs import SignMatrix

# A factor this small relative to v_k means the variant's spline divides by
# (numerically) zero at that harmonic.
DEGENERACY_RTOL = 1e-10

# Reference harmonics smaller than this at every node are unusable for the
# nodal oracle.
_MIN_REFERENCE = 1e-3


@dataclass(frozen=True)
class FactorPair:
    """hc_k and hs_k for k = 1..(N-1)/2."""

    hc: np.ndarray
    hs: np.ndarray

    def __post_init__(self):
        hc = np.asarray(self.hc, dtype=float)
        hs = np.asarray(self.hs, dtype=float)
        if hc.shape != hs.shape or hc.ndim != 1:
            raise ValueError("hc and hs must be 1-D arrays of equal length")
        object.__setattr__(self, "hc", hc)
        object.__setattr__(self, "hs", hs)


def nodal_factors(grid: np.ndarray, signs: SignMatrix, i1: int, i2: int) -> FactorPair:
    """hc/hs of one variant from its :func:`trigsplines.basis.alias_grid`,
    without the degeneracy gate; (-1)^(mJ) splits each column by row parity."""
    if i1 not in (0, 1) or i2 not in (0, 1):
        raise ValueError(f"i1 and i2 must be 0 or 1, got {i1!r}, {i2!r}")
    n = (grid.shape[1] - 1) // 2
    s = 1 - 2 * ((i1 + i2) % 2)
    plus = grid[2::2, 1 : n + 1].sum(axis=0) + s * grid[1::2, 1 : n + 1].sum(axis=0)
    # Column N-k holds v_{mN-k} in row m - 1, so its even rows are odd m.
    minus = s * grid[0::2, :n:-1].sum(axis=0) + grid[1::2, :n:-1].sum(axis=0)
    v = grid[0, 1 : n + 1]
    return FactorPair(
        hc=v + signs.cos_outer * (plus + signs.cos_inner * minus),
        hs=v + signs.sin_outer * (plus - signs.sin_inner * minus),
    )


def factor_sums(
    family: FactorFamily,
    signs: SignMatrix,
    i1: int,
    i2: int,
    n_nodes: int,
    policy: TruncationPolicy,
) -> FactorPair:
    """Raw hc/hs values without the degeneracy gate (classification sweeps
    need to see the near-zero entries)."""
    return nodal_factors(alias_grid(family, n_nodes, policy), signs, i1, i2)


def gated_factors(grid: np.ndarray, signs: SignMatrix, i1: int, i2: int) -> FactorPair:
    """:func:`nodal_factors` behind the degeneracy gate, which reads each v_k
    off row 0 of the grid.

    Raises
    ------
    DegenerateVariant
        At the first k whose |hc_k| or |hs_k| is at most
        ``DEGENERACY_RTOL * |v_k|``; the variant's spline is undefined at
        that harmonic.  The exception carries the raw factors.
    """
    pair = nodal_factors(grid, signs, i1, i2)
    scale = DEGENERACY_RTOL * np.abs(grid[0, 1 : len(pair.hc) + 1])
    bad = np.column_stack((np.abs(pair.hc) <= scale, np.abs(pair.hs) <= scale))
    if bad.any():
        k, side = np.argwhere(bad)[0]
        raise DegenerateVariant(int(k) + 1, ("hc", "hs")[side], pair)
    return pair


def interp_factors(
    family: FactorFamily,
    signs: SignMatrix,
    i1: int,
    i2: int,
    n_nodes: int,
    policy: TruncationPolicy,
) -> FactorPair:
    """Interpolation factors for one classification variant, behind the
    degeneracy gate of :func:`gated_factors` (which raises
    ``DegenerateVariant``)."""
    return gated_factors(alias_grid(family, n_nodes, policy), signs, i1, i2)


def nodal_factor_oracle(
    family: FactorFamily,
    signs: SignMatrix,
    i1: int,
    grid: GridSpec,
    k: int,
    policy: TruncationPolicy,
) -> tuple[float, float]:
    """Independent factor measurement through the defining nodal property.

    Picks an interpolation-grid node where the reference harmonic is bounded
    away from zero and returns basis_cos(t_j)/cos(k t_j) and
    basis_sin(t_j)/sin(k t_j).  The grid's kind is the interpolation index I2.

    Raises
    ------
    NoUsableNode
        If every node makes cos(k t_j) (or sin(k t_j)) vanish.
    """
    t = nodes(grid)
    ref_cos = np.cos(k * t)
    ref_sin = np.sin(k * t)
    jc = int(np.argmax(np.abs(ref_cos)))
    js = int(np.argmax(np.abs(ref_sin)))
    if abs(ref_cos[jc]) < _MIN_REFERENCE:
        raise NoUsableNode(f"|cos({k} t_j)| < {_MIN_REFERENCE} at every node")
    if abs(ref_sin[js]) < _MIN_REFERENCE:
        raise NoUsableNode(f"|sin({k} t_j)| < {_MIN_REFERENCE} at every node")

    hc = basis_cos(family, signs, i1, grid.n_nodes, k, float(t[jc]), policy) / ref_cos[jc]
    hs = basis_sin(family, signs, i1, grid.n_nodes, k, float(t[js]), policy) / ref_sin[js]
    return float(hc), float(hs)
