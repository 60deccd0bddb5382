"""Periodic polynomial-spline oracles.

These interpolants are built by completely independent means (piecewise
polynomials, cyclic tridiagonal systems) and exist to cross-check the
trigonometric splines: the r = 1 variant against the periodic broken line,
the r = 3 variant against the C2 periodic cubic, and the even-degree case
against a periodic quadratic with knots on the kind-0 grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverFailure
from .grid import GridSpec, nodes
from .spline import SplineModel, sample

BROKEN_LINE = "broken-line"
CUBIC = "cubic"
QUADRATIC = "quadratic"

# Largest cyclic-solve residual accepted, relative to max|rhs|.
_RESIDUAL_LIMIT = 1e-10


def solve_cyclic_tridiagonal(
    sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve the periodic tridiagonal system

        sub[i]*x[i-1] + diag[i]*x[i] + sup[i]*x[i+1] = rhs[i]   (indices mod n)

    by the rank-one-update reduction to two ordinary tridiagonal solves
    (Sherman-Morrison).  The caller is expected to verify the residual.
    """
    sub = np.asarray(sub, dtype=float)
    diag = np.asarray(diag, dtype=float)
    sup = np.asarray(sup, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = len(diag)
    if n < 3:
        raise ValueError("cyclic system needs at least 3 unknowns")

    gamma = -diag[0]
    b = diag.copy()
    b[0] -= gamma
    b[-1] -= sup[-1] * sub[0] / gamma

    u = np.zeros(n)
    u[0] = gamma
    u[-1] = sup[-1]

    y = _thomas(sub, b, sup, rhs)
    z = _thomas(sub, b, sup, u)
    # v = (1, 0, ..., 0, sub[0]/gamma)
    vy = y[0] + sub[0] / gamma * y[-1]
    vz = z[0] + sub[0] / gamma * z[-1]
    return y - z * (vy / (1.0 + vz))


def _thomas(sub, diag, sup, rhs):
    """Ordinary tridiagonal solve; corner couplings are ignored."""
    n = len(diag)
    c = np.zeros(n)
    d = np.zeros(n)
    c[0] = sup[0] / diag[0]
    d[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - sub[i] * c[i - 1]
        c[i] = sup[i] / denom if i < n - 1 else 0.0
        d[i] = (rhs[i] - sub[i] * d[i - 1]) / denom
    x = np.zeros(n)
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


def _checked_solve(diag: float, rhs: np.ndarray) -> np.ndarray:
    """Solve x_{j-1} + diag*x_j + x_{j+1} = rhs_j (indices mod n) and verify
    that the residual stays within ``_RESIDUAL_LIMIT`` times max|rhs|."""
    n = len(rhs)
    ones = np.ones(n)
    x = solve_cyclic_tridiagonal(ones, np.full(n, diag), ones, rhs)
    residual = np.abs(np.roll(x, 1) + diag * x + np.roll(x, -1) - rhs).max()
    limit = _RESIDUAL_LIMIT * np.abs(rhs).max()
    if residual > limit:
        raise SolverFailure(f"cyclic solve residual {residual:.3e} > {limit:.3e}")
    return x


@dataclass(frozen=True, eq=False)
class PeriodicPolySpline:
    """A periodic piecewise-polynomial interpolant on a uniform grid.

    ``second_derivs`` is populated for the cubic kind, ``knot_values`` for
    the quadratic kind (whose knots sit half a spacing off the data nodes).
    """

    kind: str
    knots: GridSpec
    values: np.ndarray
    second_derivs: np.ndarray | None = None
    knot_values: np.ndarray | None = None

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        tt = np.atleast_1d(t_arr)
        out = self._eval(tt)
        return float(out[0]) if scalar else out

    def _eval(self, tt: np.ndarray) -> np.ndarray:
        n = self.knots.n_nodes
        h = self.knots.spacing
        knot_angles = nodes(self.knots)
        if self.kind == QUADRATIC:
            # Knots on the kind-0 grid; data lives at the segment midpoints.
            origin = 0.0
        else:
            origin = knot_angles[0]
        x = np.mod(tt - origin, 2.0 * np.pi) / h
        seg = np.minimum(x.astype(int), n - 1)
        s = x - seg
        nxt = (seg + 1) % n

        if self.kind == BROKEN_LINE:
            f = self.values
            return f[seg] * (1.0 - s) + f[nxt] * s

        if self.kind == CUBIC:
            f = self.values
            m = self.second_derivs
            u = s * h
            return (
                m[seg] * (h - u) ** 3 / (6.0 * h)
                + m[nxt] * u**3 / (6.0 * h)
                + (f[seg] - m[seg] * h**2 / 6.0) * (h - u) / h
                + (f[nxt] - m[nxt] * h**2 / 6.0) * u / h
            )

        # Quadratic: Lagrange form on knot values u_j, u_{j+1} and midpoint f_j.
        u_knot = self.knot_values
        f = self.values
        return (
            u_knot[seg] * (1.0 - s) * (1.0 - 2.0 * s)
            + 4.0 * f[seg] * s * (1.0 - s)
            + u_knot[nxt] * s * (2.0 * s - 1.0)
        )


def fit_broken_line(values, grid: GridSpec) -> PeriodicPolySpline:
    """Periodic piecewise-linear interpolant through (t_j, f_j)."""
    vals = np.asarray(values, dtype=float)
    if len(vals) != grid.n_nodes:
        raise ValueError(f"need {grid.n_nodes} values, got {len(vals)}")
    return PeriodicPolySpline(kind=BROKEN_LINE, knots=grid, values=vals)


def fit_periodic_cubic(values, grid: GridSpec) -> PeriodicPolySpline:
    """C2 periodic cubic interpolant through (t_j, f_j).

    The second derivatives m_j solve the cyclic tridiagonal system
    m_{j-1} + 4 m_j + m_{j+1} = (6/h^2)(f_{j-1} - 2 f_j + f_{j+1}); the
    residual of the solve must stay within 1e-10 of the right-hand side's
    largest entry.
    """
    vals = np.asarray(values, dtype=float)
    n = grid.n_nodes
    if len(vals) != n:
        raise ValueError(f"need {n} values, got {len(vals)}")
    h = grid.spacing
    m = _checked_solve(4.0, 6.0 / h**2 * (np.roll(vals, 1) - 2.0 * vals + np.roll(vals, -1)))
    return PeriodicPolySpline(kind=CUBIC, knots=grid, values=vals, second_derivs=m)


def fit_periodic_quadratic(values, grid: GridSpec) -> PeriodicPolySpline:
    """C1 periodic quadratic with knots on the kind-0 grid, interpolating the
    data at the kind-1 nodes (the segment midpoints).

    The knot values u_j solve the cyclic system
    u_{j-1} + 6 u_j + u_{j+1} = 4 (f_{j-1} + f_j); the residual is verified.
    """
    vals = np.asarray(values, dtype=float)
    n = grid.n_nodes
    if len(vals) != n:
        raise ValueError(f"need {n} values, got {len(vals)}")
    if grid.kind != 1:
        raise ValueError("quadratic analog interpolates kind-1 data; pass the kind-1 grid")
    u = _checked_solve(6.0, 4.0 * (np.roll(vals, 1) + vals))
    return PeriodicPolySpline(kind=QUADRATIC, knots=GridSpec(n, 0), values=vals, knot_values=u)


def max_deviation(model: SplineModel, analog, n_samples: int) -> float:
    """max |spline - analog| over n_samples equispaced angles.

    ``analog`` is any callable of the angle array, typically a
    :class:`PeriodicPolySpline`.
    """
    pts = sample(model, n_samples)
    return float(np.abs(pts[:, 1] - analog(pts[:, 0])).max())
