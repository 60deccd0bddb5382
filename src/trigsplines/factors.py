"""Convergence-factor families v_k with decay order O(k**-(1+r)).

The built-in family is the sinc power ``v_k = [sin(alpha*k/2) / k] ** (1+r)``.
A finite user-supplied table is supported as an extension point; its entries
are taken verbatim, and indices beyond the stored range contribute nothing to
the alias series.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfTable

SINC_POWER = "sinc-power"
CUSTOM_TABLE = "custom-table"


@dataclass(frozen=True)
class FactorFamily:
    """A rule producing the positive-index factors v_1, v_2, ...

    ``kind`` selects the rule.  For ``SINC_POWER`` the factor at k is exactly
    ``(sin(alpha*k/2) / k) ** (1+r)`` with no sinc normalization.  For
    ``CUSTOM_TABLE`` the factors are the stored ``table`` entries; the
    ``decay_exponent`` declaration is what permits tolerance-based truncation
    (an undeclared exponent forces fixed-order summation).
    """

    kind: str
    r: int
    alpha: float | None = None
    table: tuple[float, ...] | None = None
    decay_exponent: float | None = None

    def __post_init__(self):
        if self.kind not in (SINC_POWER, CUSTOM_TABLE):
            raise ValueError(f"unknown factor family kind {self.kind!r}")
        try:
            object.__setattr__(self, "r", operator.index(self.r))
        except TypeError:
            raise ValueError(f"r must be an integer >= 0, got {self.r!r}") from None
        if self.r < 0:
            raise ValueError(f"r must be an integer >= 0, got {self.r!r}")
        if self.table is not None:
            object.__setattr__(self, "table", tuple(float(x) for x in self.table))
        if self.kind == SINC_POWER:
            if self.alpha is None or not self.alpha > 0:
                raise ValueError(f"sinc-power family needs alpha > 0, got {self.alpha!r}")
            if not math.isfinite(self.alpha):
                raise ValueError(f"sinc-power family needs a finite alpha, got {self.alpha!r}")
            if self.table is not None:
                raise ValueError("sinc-power family takes no table")
        else:
            if self.table is None or len(self.table) == 0:
                raise ValueError("custom-table family needs a non-empty table")
            if self.decay_exponent is not None and not self.decay_exponent > 1:
                raise ValueError("declared decay exponent must exceed 1")


def default_alpha(n_nodes: int) -> float:
    """The standard sinc-power width, 2*pi/N."""
    return 2.0 * math.pi / n_nodes


def sinc_power(r: int, alpha: float) -> FactorFamily:
    """Sinc-power family with smoothness r and width parameter alpha."""
    return FactorFamily(kind=SINC_POWER, r=r, alpha=alpha)


def custom_table(values, r: int, decay_exponent: float | None = None) -> FactorFamily:
    """Finite factor table.

    ``decay_exponent`` is the caller's declaration that the tabulated family
    decays at least like k**-exponent; declaring it enables tolerance-based
    truncation (see :func:`tail_bound`).
    """
    return FactorFamily(
        kind=CUSTOM_TABLE,
        r=r,
        table=tuple(float(x) for x in values),
        decay_exponent=decay_exponent,
    )


def factor_at(family: FactorFamily, k: int) -> float:
    """The factor v_k for a single positive index k.

    Raises
    ------
    IndexOutOfTable
        For a custom table queried beyond its stored range.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if family.kind == SINC_POWER:
        return (math.sin(family.alpha * k / 2.0) / k) ** (1 + family.r)
    if k > len(family.table):
        raise IndexOutOfTable(f"k={k} beyond stored table of length {len(family.table)}")
    return family.table[k - 1]


def factor_values(family: FactorFamily, indices: np.ndarray) -> np.ndarray:
    """Vectorized factors for the alias series.

    Unlike :func:`factor_at`, custom-table indices beyond the stored range
    evaluate to 0.0 here: the finite table is the whole family, so alias terms
    past its end simply do not exist.
    """
    idx = np.asarray(indices)
    if family.kind == SINC_POWER:
        j = idx.astype(float)
        return (np.sin(family.alpha * j / 2.0) / j) ** (1 + family.r)
    out = np.zeros(idx.shape, dtype=float)
    stored = np.asarray(family.table, dtype=float)
    mask = (idx >= 1) & (idx <= len(stored))
    out[mask] = stored[idx[mask] - 1]
    return out


def tail_bound(family: FactorFamily, n_nodes: int, k: int, m_terms: int) -> float:
    """Upper bound on the absolute alias tail beyond m_terms blocks.

    Bounds ``sum_{m > m_terms} |v_{m*N+k}| + |v_{m*N-k}|``.  For the
    sinc-power family with r >= 1 this uses |v_j| <= j**-(1+r) and an integral
    estimate; for r = 0 no bound exists and +inf is returned (fixed-order
    summation applies).  For a custom table the tail past the stored range is
    exactly zero, so the bound is the exact remaining in-table mass -- but only
    when a decay exponent was declared; otherwise +inf is returned and
    tolerance-based truncation is rejected.
    """
    half = (n_nodes - 1) // 2
    if not 1 <= k <= half:
        raise ValueError(f"k must be in [1, {half}], got {k}")
    if m_terms < 1:
        raise ValueError(f"m_terms must be >= 1, got {m_terms}")

    if family.kind == SINC_POWER:
        r = family.r
        if r == 0:
            return math.inf
        lo = float(m_terms * n_nodes - k)
        hi = float(m_terms * n_nodes + k)
        return (lo ** -r + hi ** -r) / (r * n_nodes)

    if family.decay_exponent is None:
        return math.inf
    # Exact remainder of the stored table: indices m*N +/- k with m > m_terms.
    length = len(family.table)
    m_hi = (length + k) // n_nodes
    if m_hi <= m_terms:
        return 0.0
    m = np.arange(m_terms + 1, m_hi + 1)
    vals = np.abs(factor_values(family, m * n_nodes + k))
    vals += np.abs(factor_values(family, m * n_nodes - k))
    return float(vals.sum())
