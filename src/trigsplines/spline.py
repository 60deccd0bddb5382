"""Assembly and evaluation of the interpolation trigonometric spline.

A spline is a point in the classification: a factor family, a sign element,
smoothness r, node count N, a crosslink index I1 and an interpolation index
I2.  Built from N data values, it evaluates as

    a0/2 + sum_k [ a_k * basis_cos_k(t) / hc_k + b_k * basis_sin_k(t) / hs_k ]

with coefficients taken on the kind-I2 grid and factors truncated at the
same depth M as the basis series (one M per build, from
:func:`trigsplines.basis.alias_depth`), which pins the spline to the data at
the interpolation nodes regardless of that depth.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .basis import TruncationPolicy, alias_grid
from .factors import FactorFamily
from .grid import GridSpec, nodes
from .harmonics import HarmonicCoeffs, SampleSet, dft_coeffs
from .interp_factors import FactorPair, gated_factors
from .signs import SignMatrix

# Soft cap on the complex elements of each evaluate temporary.
_CHUNK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class SplineSpec:
    """Everything that identifies one spline variant except the data."""

    family: FactorFamily
    signs: SignMatrix
    r: int
    n_nodes: int
    i1: int
    i2: int
    policy: TruncationPolicy = TruncationPolicy()

    def __post_init__(self):
        object.__setattr__(self, "n_nodes", GridSpec(self.n_nodes, 0).n_nodes)
        try:
            i1, i2 = operator.index(self.i1), operator.index(self.i2)
        except TypeError:
            i1 = i2 = None
        if i1 not in (0, 1) or i2 not in (0, 1):
            raise ValueError(f"i1 and i2 must be 0 or 1, got {self.i1!r}, {self.i2!r}")
        object.__setattr__(self, "i1", i1)
        object.__setattr__(self, "i2", i2)
        if self.r != self.family.r:
            raise ValueError(
                f"spec smoothness r={self.r} disagrees with the family's r={self.family.r}"
            )

    @property
    def n_harmonics(self) -> int:
        return (self.n_nodes - 1) // 2


@dataclass(frozen=True, eq=False)
class SplineModel:
    """A built spline: spec, coefficients, factors, the source samples, and
    the whole truncated series.

    ``spectrum`` is the complex (M + 1) x N grid of the series
    coefficients c_j, j = m*N + q, with the build's one alias depth M, laid
    out like
    :func:`trigsplines.basis.alias_grid`; the spline is Re sum_j c_j e^{ijt}.
    It takes 16 bytes per alias term.
    """

    spec: SplineSpec
    coeffs: HarmonicCoeffs
    factors: FactorPair
    source: SampleSet
    spectrum: np.ndarray

    def __call__(self, t):
        return evaluate(self, t)


def build(values, spec: SplineSpec) -> SplineModel:
    """Construct an evaluable spline from N data values over a fresh
    :func:`trigsplines.basis.alias_grid`; see :func:`assemble`."""
    return assemble(values, spec, alias_grid(spec.family, spec.n_nodes, spec.policy))


def assemble(values, spec: SplineSpec, grid: np.ndarray) -> SplineModel:
    """The spline of ``spec`` from its alias grid, which depends only on the
    family, N and the policy, so sweeps over sign elements and grid pairs
    share one.  Coefficients are computed on the kind-I2 grid.

    Raises
    ------
    DegenerateVariant
        If an interpolation factor of the variant is numerically zero.
    """
    factors = gated_factors(grid, spec.signs, spec.i1, spec.i2)
    samples = SampleSet(values=np.asarray(values, dtype=float), grid=GridSpec(spec.n_nodes, spec.i2))
    coeffs = dft_coeffs(samples)
    n, s = spec.n_harmonics, spec.signs
    w_cos = coeffs.a / factors.hc
    w_sin = coeffs.b / factors.hs
    # Re(c e^{ijt}) = x cos(jt) + y sin(jt) for c = x - iy.
    plus = s.cos_outer * w_cos - 1j * s.sin_outer * w_sin
    minus = s.cos_outer * s.cos_inner * w_cos - 1j * s.sin_outer * s.sin_inner * w_sin
    if spec.i1:  # (-1)^m with m = row + 1 in the v_{mN-k} columns
        minus = -minus
    spectrum = grid * np.concatenate(([0.0], plus, minus[::-1]))
    if spec.i1:
        spectrum[1::2] *= -1.0
    spectrum[0, 1 : n + 1] = grid[0, 1 : n + 1] * (w_cos - 1j * w_sin)
    spectrum[0, 0] = coeffs.a0 / 2.0
    return SplineModel(spec=spec, coeffs=coeffs, factors=factors, source=samples, spectrum=spectrum)


def _powers(t: np.ndarray, stride: int, count: int) -> np.ndarray:
    """e^{i*k*stride*t} for k = 0..count-1, one row per angle of the column
    ``t``.  With k = a*w + b, w = ceil(sqrt(count)), each entry is the product
    of two of about 2*sqrt(count) exponentials."""
    w = math.isqrt(count - 1) + 1
    coarse = np.exp(1j * (t * (stride * w * np.arange(-(-count // w)))))
    fine = np.exp(1j * (t * (stride * np.arange(w))))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(len(t), -1)[:, :count]


def evaluate(model: SplineModel, t):
    """Spline value(s) at arbitrary angle(s).

    With j = m*N + q the series factorises as
    Re sum_q e^{iqt} sum_m e^{imNt} c_{mN+q}: one matrix product over the
    spectrum per batch of points.  Angles are reduced modulo 2*pi first, which
    leaves those in [0, 2*pi) unchanged; a NaN or infinite angle raises
    ``ValueError``.  Returns a float for a scalar angle, else an array of the
    angles' shape.
    """
    t_arr = np.asarray(t, dtype=float)
    tt = np.atleast_1d(t_arr).ravel()
    bad = np.flatnonzero(~np.isfinite(tt))
    if bad.size:
        raise ValueError(f"angles must be finite, got {tt[bad[0]]} at index {bad[0]}")
    tt = np.mod(tt, 2.0 * np.pi)
    rows, n_nodes = model.spectrum.shape
    out = np.empty(tt.size)
    step = max(1, _CHUNK_ELEMENTS // (2 * max(rows, n_nodes)))
    for start in range(0, tt.size, step):
        ts = tt[start : start + step, None]
        # einsum rather than matmul: a single-row complex matmul wakes the
        # BLAS worker threads, which then spin and slow the caller's next work.
        inner = np.einsum("pm,mq->pq", _powers(ts, n_nodes, rows), model.spectrum)
        out[start : start + step] = np.einsum("pq,pq->p", inner, _powers(ts, 1, n_nodes)).real
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


def sample(model: SplineModel, count: int) -> np.ndarray:
    """Spline values at ``count`` equispaced angles t_i = 2*pi*i/count.

    Returns an array of shape (count, 2) whose rows are (t, value).

    On an equispaced output grid the series folds exactly: e^{ij t_i} depends
    only on j mod count, so every coefficient c_j is added into its residue
    bucket and one inverse FFT of length ``count`` finishes the sum, in
    O(M*N + count*log(count)).  The result is the same truncated series as
    :func:`evaluate`, summed in a different order.
    """
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    rows, n_nodes = model.spectrum.shape
    folded = np.zeros(count, dtype=complex)
    step = max(1, _CHUNK_ELEMENTS // rows)
    for q in range(0, n_nodes, step):
        qs = np.arange(q, min(q + step, n_nodes))
        residue = (np.add.outer(qs, n_nodes * np.arange(rows)) % count).ravel()
        coef = model.spectrum[:, qs].T.ravel()
        folded += np.bincount(residue, coef.real, count) + 1j * np.bincount(residue, coef.imag, count)
    angles = 2.0 * np.pi * np.arange(count) / count
    return np.column_stack((angles, np.fft.ifft(folded, norm="forward").real))


@dataclass(frozen=True)
class InterpolationReport:
    """Per-node interpolation residuals of a built model."""

    max_residual: float
    residuals: np.ndarray
    node_angles: np.ndarray


def verify_interpolation(model: SplineModel) -> InterpolationReport:
    """Residuals eval(t_j) - f_j over the interpolation-grid nodes.

    Reports only; no threshold is asserted here (r = 0 fixed-order models are
    legitimate callers).
    """
    grid = GridSpec(model.spec.n_nodes, model.spec.i2)
    t = nodes(grid)
    residuals = evaluate(model, t) - model.source.values
    return InterpolationReport(
        max_residual=float(np.abs(residuals).max()),
        residuals=residuals,
        node_angles=t,
    )
