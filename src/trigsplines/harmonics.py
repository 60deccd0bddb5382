"""Discrete Fourier coefficients of data sampled on a uniform grid.

The 2/N normalization is chosen so that the degree-(N-1)/2 trigonometric
polynomial built from the coefficients reproduces the samples exactly at the
grid nodes (odd N).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import _record
from .grid import GridSpec


class SampleSet(_record("SampleSet", "values grid")):
    """N data values attached to the N nodes of a grid."""

    __slots__ = ()

    def __new__(cls, values: np.ndarray, grid: GridSpec):
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or len(vals) != grid.n_nodes:
            raise ValueError(
                f"need exactly {grid.n_nodes} values for this grid, got shape {vals.shape}"
            )
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise ValueError(f"data values must be finite, got {vals[bad[0]]} at index {bad[0]}")
        return super().__new__(cls, vals, grid)

    def unit_scaled(self) -> tuple[np.ndarray, int]:
        """The values times 2^-e, and e = :func:`_exponent` of the values, which
        puts the largest |value| in [1/2, 1).  The scaling is exact."""
        e = _exponent(self.values)
        return np.ldexp(self.values, -e), e


class HarmonicCoeffs(NamedTuple):
    """Coefficients a0, a_k, b_k for k = 1..(N-1)/2."""

    a0: float
    a: np.ndarray
    b: np.ndarray


def _exponent(x) -> int:
    """The e with max|x| * 2^-e in [1/2, 1); 0 for zero or empty ``x``."""
    return math.frexp(float(np.abs(x).max(initial=0.0)))[1]


def _unscaled(x, e: int):
    """``x * 2^e``; a result beyond the float range raises ``ValueError``."""
    if _exponent(x) + e > 1024:
        raise ValueError("result exceeds the float range: data too close to the float maximum")
    return np.ldexp(x, e)


def _unit_coeffs(samples: SampleSet) -> tuple[np.ndarray, int]:
    """[a0, a_1..a_n, b_1..b_n] of the data scaled by
    :meth:`SampleSet.unit_scaled`, and its e: the coefficients are these
    times 2^e.  One real FFT gives sum f_j e^{-2*pi*ijk/N}; the kind-1 grid's
    half-spacing shift multiplies harmonic k by e^{-ik*pi/N}."""
    f, e = samples.unit_scaled()
    n_nodes = samples.grid.n_nodes
    k = np.arange(1, samples.grid.n_harmonics + 1)
    scale = 2.0 / n_nodes
    spectrum = np.fft.rfft(f)[k]
    if samples.grid.kind == 1:
        spectrum = spectrum * np.exp(-1j * np.pi * k / n_nodes)
    return np.concatenate(([scale * f.sum()], scale * spectrum.real, -scale * spectrum.imag)), e


def _coeffs(unit: np.ndarray, e: int) -> HarmonicCoeffs:
    """The coefficients ``unit * 2^e``; one beyond the float range raises
    ``ValueError``."""
    c, n = _unscaled(unit, e), len(unit) // 2
    return HarmonicCoeffs(a0=float(c[0]), a=c[1 : n + 1], b=c[n + 1 :])


def dft_coeffs(samples: SampleSet) -> HarmonicCoeffs:
    """Discrete Fourier coefficients of the sampled data.

    a0 = (2/N) sum f_j,  a_k = (2/N) sum f_j cos(k t_j),
    b_k = (2/N) sum f_j sin(k t_j), with t_j the nodes of ``samples.grid``,
    computed on the unit-scaled data (:func:`_unit_coeffs`) so the FFT cannot
    overflow; a coefficient beyond the float range raises ``ValueError``.
    """
    return _coeffs(*_unit_coeffs(samples))
