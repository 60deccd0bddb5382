"""Independent references the tests compare the library against.

None of these is on a build path: each recomputes a quantity by a second,
more direct route (the basis series summed term by term, the raw factor sums
without the gate, the defining nodal property, a dense
trigonometric-polynomial sum, the whole sign table).
"""

from __future__ import annotations

import numpy as np

from trigsplines import (
    ELEMENT_NAMES,
    DegenerateVariant,
    GridSpec,
    TruncationPolicy,
    alias_depth,
    alias_grid,
    factor_values,
    interp_factors,
    lookup,
    nodes,
)
from trigsplines.basis import _CHUNK_ELEMENTS

# Reference harmonics smaller than this at every node are unusable for the
# nodal oracle.
_MIN_REFERENCE = 1e-3


class NoUsableNode(Exception):
    """Every grid node makes the reference harmonic vanish."""


def enumerate_all():
    """All 16 sign elements in row-major table order A1, A2, ..., D4."""
    return [lookup(name) for name in ELEMENT_NAMES]


def variant_factors(family, signs, i1, i2, n_nodes, policy):
    """:func:`trigsplines.interp_factors` over a fresh alias grid of the
    family, N and policy; raises ``DegenerateVariant``."""
    return interp_factors(alias_grid(family, n_nodes, policy), signs, i1, i2)


def factor_sums(family, signs, i1, i2, n_nodes, policy):
    """Raw hc/hs values without the degeneracy gate (classification sweeps
    need to see the near-zero entries)."""
    try:
        return variant_factors(family, signs, i1, i2, n_nodes, policy)
    except DegenerateVariant as exc:
        return exc.pair


def _check_harmonic(n_nodes: int, k: int) -> None:
    half = GridSpec(n_nodes).n_harmonics
    if not 1 <= k <= half:
        raise ValueError(f"k must be in [1, {half}], got {k}")


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
    """Cosine-type basis series at harmonic k, summed term by term to the
    depth :func:`trigsplines.alias_depth` picks.

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
    kt = np.multiply.outer(t_arr, np.arange(1, len(coeffs.a) + 1))
    out = coeffs.a0 / 2.0 + np.cos(kt) @ coeffs.a + np.sin(kt) @ coeffs.b
    return float(out) if t_arr.ndim == 0 else out
