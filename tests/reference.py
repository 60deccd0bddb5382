"""Independent references the tests compare the library against.

None of these is on a build path: each recomputes a quantity by a second,
more direct route (the raw factor sums without the gate, the defining nodal
property, a dense trigonometric-polynomial sum, the whole sign table).
"""

from __future__ import annotations

import numpy as np

from trigsplines import ELEMENT_NAMES, basis_cos, basis_sin, lookup, nodes
from trigsplines.basis import alias_grid
from trigsplines.interp_factors import nodal_factors

# Reference harmonics smaller than this at every node are unusable for the
# nodal oracle.
_MIN_REFERENCE = 1e-3


class NoUsableNode(Exception):
    """Every grid node makes the reference harmonic vanish."""


def enumerate_all():
    """All 16 sign elements in row-major table order A1, A2, ..., D4."""
    return [lookup(name) for name in ELEMENT_NAMES]


def factor_sums(family, signs, i1, i2, n_nodes, policy):
    """Raw hc/hs values without the degeneracy gate (classification sweeps
    need to see the near-zero entries)."""
    return nodal_factors(alias_grid(family, n_nodes, policy), signs, i1, i2)


def nodal_factor_oracle(family, signs, i1, grid, k, policy):
    """Independent factor measurement through the defining nodal property.

    Picks an interpolation-grid node where the reference harmonic is bounded
    away from zero and returns basis_cos(t_j)/cos(k t_j) and
    basis_sin(t_j)/sin(k t_j).  The grid's kind is the interpolation index
    I2.  Raises :class:`NoUsableNode` if every node makes cos(k t_j) (or
    sin(k t_j)) vanish.
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


def trig_poly_eval(coeffs, t):
    """a0/2 + sum_k (a_k cos(kt) + b_k sin(kt)) as a dense sum over the
    harmonics: a float for a scalar angle, else an array of the angles'
    shape."""
    t_arr = np.asarray(t, dtype=float)
    kt = np.multiply.outer(t_arr, np.arange(1, coeffs.n_harmonics + 1))
    out = coeffs.a0 / 2.0 + np.cos(kt) @ coeffs.a + np.sin(kt) @ coeffs.b
    return float(out) if t_arr.ndim == 0 else out
