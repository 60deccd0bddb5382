"""Interpolation trigonometric splines from uniformly convergent series.

The construction classifies splines by a convergence-factor family, a
sign-distribution element (A1..D4), a smoothness parameter r, an odd node
count N, and a pair of grid indices: the crosslink grid (shaping the basis
series) and the interpolation grid (fixing the data nodes and the factor
alternation).  Independent periodic polynomial splines serve as oracles for
the variants that have polynomial analogs.
"""

from .analog import (
    PeriodicPolySpline,
    fit_broken_line,
    fit_periodic_cubic,
    fit_periodic_quadratic,
    max_deviation,
    solve_cyclic_tridiagonal,
)
from .basis import DEFAULT_FIXED_M, TruncationPolicy, alias_depth, basis_cos, basis_sin
from .errors import (
    DegenerateVariant,
    IndexOutOfTable,
    InvalidGrid,
    NoUsableNode,
    SolverFailure,
    TrigSplineError,
    TruncationNotConverged,
    UnknownElement,
)
from .factors import (
    FactorFamily,
    custom_table,
    default_alpha,
    factor_at,
    factor_values,
    sinc_power,
)
from .grid import GridSpec, nodes
from .harmonics import HarmonicCoeffs, SampleSet, dft_coeffs, trig_poly_eval
from .interp_factors import (
    FactorPair,
    factor_sums,
    interp_factors,
    nodal_factor_oracle,
)
from .signs import ELEMENT_NAMES, SignMatrix, enumerate_all, lookup
from .spline import (
    InterpolationReport,
    SplineModel,
    SplineSpec,
    build,
    evaluate,
    sample,
    verify_interpolation,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_FIXED_M",
    "DegenerateVariant",
    "ELEMENT_NAMES",
    "FactorFamily",
    "FactorPair",
    "GridSpec",
    "HarmonicCoeffs",
    "IndexOutOfTable",
    "InterpolationReport",
    "InvalidGrid",
    "NoUsableNode",
    "PeriodicPolySpline",
    "SampleSet",
    "SignMatrix",
    "SolverFailure",
    "SplineModel",
    "SplineSpec",
    "TrigSplineError",
    "TruncationNotConverged",
    "TruncationPolicy",
    "UnknownElement",
    "alias_depth",
    "basis_cos",
    "basis_sin",
    "build",
    "custom_table",
    "default_alpha",
    "dft_coeffs",
    "enumerate_all",
    "evaluate",
    "factor_at",
    "factor_sums",
    "factor_values",
    "fit_broken_line",
    "fit_periodic_cubic",
    "fit_periodic_quadratic",
    "interp_factors",
    "lookup",
    "max_deviation",
    "nodal_factor_oracle",
    "nodes",
    "sample",
    "sinc_power",
    "solve_cyclic_tridiagonal",
    "trig_poly_eval",
    "verify_interpolation",
]
