"""Periodic polynomial-spline oracles.

These interpolants are built by completely independent means (piecewise
polynomials, circulant linear systems) and exist to cross-check the
trigonometric splines: the r = 1 variant against the periodic broken line,
the r = 3 variant against the C2 periodic cubic, and the even-degree case
against a periodic quadratic with knots on the kind-0 grid.  Each fit works
on the data scaled by :meth:`SampleSet.unit_scaled` and scales its table
back; an entry beyond the float range raises ``ValueError``.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverFailure, _record
from .grid import GridSpec, nodes
from .harmonics import SampleSet, _unscaled
from .spline import SplineModel, _finite_angles, sample

# Largest cyclic-solve residual accepted, relative to max|rhs|.
_RESIDUAL_LIMIT = 1e-10


def _solve_circulant(diag: float, rhs: np.ndarray) -> np.ndarray:
    """Solve x_{j-1} + diag*x_j + x_{j+1} = rhs_j (indices mod n).  The matrix
    is circulant: the DFT diagonalises it with eigenvalues diag + 2cos(2*pi*k/n),
    all at least 2 for diag >= 4."""
    n = len(rhs)
    eigenvalues = diag + 2.0 * np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n)
    return np.fft.irfft(np.fft.rfft(rhs) / eigenvalues, n)


def _checked_solve(diag: float, rhs: np.ndarray) -> np.ndarray:
    """:func:`_solve_circulant`, verifying that the residual stays within
    ``_RESIDUAL_LIMIT`` times max|rhs| (a NaN residual fails too)."""
    x = _solve_circulant(diag, rhs)
    residual = np.abs(np.roll(x, 1) + diag * x + np.roll(x, -1) - rhs).max()
    limit = _RESIDUAL_LIMIT * np.abs(rhs).max()
    if not residual <= limit:
        raise SolverFailure(f"cyclic solve residual {residual:.3e} > {limit:.3e}")
    return x


class PeriodicPolySpline(_record("PeriodicPolySpline", "knots coeffs")):
    """A periodic piecewise polynomial on the uniform grid ``knots``, in
    piecewise-polynomial (pp) form.

    Row j of ``coeffs`` holds the polynomial on [t_j, t_j + h) in the local
    variable s = (t - t_j)/h, lowest power first, with t_j the knots' nodes
    and h their spacing.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, knots: GridSpec, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 2 or len(coeffs) != knots.n_nodes:
            raise ValueError(f"need {knots.n_nodes} rows of coefficients, got {coeffs.shape}")
        return super().__new__(cls, knots, coeffs)

    def __call__(self, t):
        """Value(s) at angle(s) ``t``: a float for a scalar angle, else an
        array of the angles' shape.  A NaN or infinite angle raises
        ``ValueError``."""
        t_arr = _finite_angles(t)
        x = np.mod(t_arr - nodes(self.knots)[0], 2.0 * np.pi) / self.knots.spacing
        seg = np.minimum(x.astype(int), self.knots.n_nodes - 1)
        s = x - seg
        out = np.zeros_like(s)
        for column in self.coeffs.T[::-1]:
            out = out * s + column[seg]
        return float(out) if t_arr.ndim == 0 else out


def fit_broken_line(values, grid: GridSpec) -> PeriodicPolySpline:
    """Periodic piecewise-linear interpolant through (t_j, f_j)."""
    f, e = SampleSet(values, grid).unit_scaled()
    return PeriodicPolySpline(grid, _unscaled(np.column_stack((f, np.roll(f, -1) - f)), e))


def fit_periodic_cubic(values, grid: GridSpec) -> PeriodicPolySpline:
    """C2 periodic cubic interpolant through (t_j, f_j).

    The second derivatives m_j solve the cyclic system
    m_{j-1} + 4 m_j + m_{j+1} = (6/h^2)(f_{j-1} - 2 f_j + f_{j+1}); the
    residual of the solve must stay within 1e-10 of the right-hand side's
    largest entry.
    """
    f, e = SampleSet(values, grid).unit_scaled()
    h2 = grid.spacing**2
    m = _checked_solve(4.0, 6.0 / h2 * (np.roll(f, 1) - 2.0 * f + np.roll(f, -1)))
    f1, m1 = np.roll(f, -1), np.roll(m, -1)
    coeffs = (f, f1 - f - h2 * (2.0 * m + m1) / 6.0, h2 * m / 2.0, h2 * (m1 - m) / 6.0)
    return PeriodicPolySpline(grid, _unscaled(np.column_stack(coeffs), e))


def fit_periodic_quadratic(values, grid: GridSpec) -> PeriodicPolySpline:
    """C1 periodic quadratic with knots on the kind-0 grid, interpolating the
    data at the kind-1 nodes (the segment midpoints).

    The knot values u_j solve the cyclic system
    u_{j-1} + 6 u_j + u_{j+1} = 4 (f_{j-1} + f_j); the residual is verified.
    """
    f, e = SampleSet(values, grid).unit_scaled()
    if grid.kind != 1:
        raise ValueError("quadratic analog interpolates kind-1 data; pass the kind-1 grid")
    u = _checked_solve(6.0, 4.0 * (np.roll(f, 1) + f))
    u1 = np.roll(u, -1)
    coeffs = (u, 4.0 * f - 3.0 * u - u1, 2.0 * (u + u1) - 4.0 * f)
    return PeriodicPolySpline(GridSpec(grid.n_nodes, 0), _unscaled(np.column_stack(coeffs), e))


def max_deviation(model: SplineModel, analog, n_samples: int) -> float:
    """max |spline - analog| over n_samples equispaced angles.

    ``analog`` is any callable of the angle array, typically a
    :class:`PeriodicPolySpline`.
    """
    pts = sample(model, n_samples)
    return float(np.abs(pts[:, 1] - analog(pts[:, 0])).max())
