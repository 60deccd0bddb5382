"""Discrete Fourier coefficients of data sampled on a uniform grid, and
trigonometric-polynomial evaluation.

The 2/N normalization is chosen so that the degree-(N-1)/2 trigonometric
polynomial built from the coefficients reproduces the samples exactly at the
grid nodes (odd N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec


@dataclass(frozen=True)
class SampleSet:
    """N data values attached to the N nodes of a grid."""

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or len(vals) != self.grid.n_nodes:
            raise ValueError(
                f"need exactly {self.grid.n_nodes} values for this grid, got shape {vals.shape}"
            )
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise ValueError(f"data values must be finite, got {vals[bad[0]]} at index {bad[0]}")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class HarmonicCoeffs:
    """Coefficients a0, a_k, b_k for k = 1..(N-1)/2."""

    a0: float
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("a and b must be 1-D arrays of equal length")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n_harmonics(self) -> int:
        return len(self.a)


def dft_coeffs(samples: SampleSet) -> HarmonicCoeffs:
    """Discrete Fourier coefficients of the sampled data.

    a0 = (2/N) sum f_j,  a_k = (2/N) sum f_j cos(k t_j),
    b_k = (2/N) sum f_j sin(k t_j), with t_j the nodes of ``samples.grid``.
    One real FFT gives sum f_j e^{-2*pi*ijk/N}; the kind-1 grid's half-spacing
    shift multiplies harmonic k by e^{-ik*pi/N}.
    """
    f = samples.values
    n_nodes = samples.grid.n_nodes
    k = np.arange(1, samples.grid.n_harmonics + 1)
    scale = 2.0 / n_nodes
    spectrum = np.fft.rfft(f)[k]
    if samples.grid.kind == 1:
        spectrum = spectrum * np.exp(-1j * np.pi * k / n_nodes)
    return HarmonicCoeffs(a0=scale * float(f.sum()), a=scale * spectrum.real, b=-scale * spectrum.imag)


def trig_poly_eval(coeffs: HarmonicCoeffs, t):
    """Evaluate a0/2 + sum_k (a_k cos(kt) + b_k sin(kt)).

    Accepts a scalar or an array of angles; returns a float or an array of
    the angles' shape.
    """
    t_arr = np.asarray(t, dtype=float)
    kt = np.multiply.outer(t_arr, np.arange(1, coeffs.n_harmonics + 1))
    out = coeffs.a0 / 2.0 + np.cos(kt) @ coeffs.a + np.sin(kt) @ coeffs.b
    return float(out) if t_arr.ndim == 0 else out
