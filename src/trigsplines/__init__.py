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
)
from .basis import DEFAULT_FIXED_M, TruncationPolicy, alias_depth, alias_grid
from .errors import (
    DegenerateVariant,
    InvalidGrid,
    SolverFailure,
    TrigSplineError,
    TruncationNotConverged,
    UnknownElement,
)
from .factors import FactorFamily, custom_table, default_alpha, factor_values, sinc_power
from .grid import GridSpec, nodes
from .harmonics import HarmonicCoeffs, SampleSet, dft_coeffs
from .interp_factors import FactorPair, interp_factors
from .signs import ELEMENT_NAMES, SignMatrix, lookup
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
    "InterpolationReport",
    "InvalidGrid",
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
    "alias_grid",
    "build",
    "custom_table",
    "default_alpha",
    "dft_coeffs",
    "evaluate",
    "factor_values",
    "fit_broken_line",
    "fit_periodic_cubic",
    "fit_periodic_quadratic",
    "interp_factors",
    "lookup",
    "max_deviation",
    "nodes",
    "sample",
    "sinc_power",
    "verify_interpolation",
]
