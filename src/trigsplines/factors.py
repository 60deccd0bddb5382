"""Convergence-factor families v_k with decay order O(k**-(1+r)).

The built-in family is the sinc power ``v_k = [sin(alpha*k/2) / k] ** (1+r)``.
A finite user-supplied table is supported as an extension point; its entries
are taken verbatim, and indices beyond the stored range contribute nothing to
the alias series.  :func:`factor_values` is the one formula; every other
reader of v goes through it.
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

    ``kind`` selects the rule.  For ``SINC_POWER`` the factor at k is
    ``(sin(alpha*k/2) / k) ** (1+r)`` with no sinc normalization.  For
    ``CUSTOM_TABLE`` the factors are the stored ``table`` entries.
    """

    kind: str
    r: int
    alpha: float | None = None
    table: tuple[float, ...] | None = None

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


def default_alpha(n_nodes: int) -> float:
    """The standard sinc-power width, 2*pi/N."""
    return 2.0 * math.pi / n_nodes


def sinc_power(r: int, alpha: float) -> FactorFamily:
    """Sinc-power family with smoothness r and width parameter alpha."""
    return FactorFamily(kind=SINC_POWER, r=r, alpha=alpha)


def custom_table(values, r: int) -> FactorFamily:
    """Finite factor table; the alias series is summed to its end."""
    return FactorFamily(kind=CUSTOM_TABLE, r=r, table=tuple(float(x) for x in values))


def factor_at(family: FactorFamily, k: int) -> float:
    """The factor v_k for a single positive index k, from :func:`factor_values`.

    Raises
    ------
    IndexOutOfTable
        For a custom table queried beyond its stored range.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if family.kind == CUSTOM_TABLE and k > len(family.table):
        raise IndexOutOfTable(f"k={k} beyond stored table of length {len(family.table)}")
    return float(factor_values(family, np.array([k]))[0])


def factor_values(family: FactorFamily, indices: np.ndarray) -> np.ndarray:
    """Vectorized factors for the alias series.

    Where x = alpha*j/2 is a multiple of pi, sin(x) computes to rounding
    noise; a v_j with |sin(x)| <= 4*eps*|x| (that is, |sin(x)/j| <=
    2*eps*alpha) is exactly 0, so a harmonic with no nonzero factor fails the
    degeneracy gate.  Unlike :func:`factor_at`, custom-table indices beyond
    the stored range evaluate to 0.0 here: the finite table is the whole
    family, so alias terms past its end simply do not exist.
    """
    idx = np.asarray(indices)
    if family.kind == SINC_POWER:
        j = idx.astype(float)
        q = np.sin(family.alpha / 2.0 * j) / j
        q[np.abs(q) <= 2.0 * np.finfo(float).eps * family.alpha] = 0.0
        return q ** (1 + family.r)
    out = np.zeros(idx.shape, dtype=float)
    stored = np.asarray(family.table, dtype=float)
    mask = (idx >= 1) & (idx <= len(stored))
    out[mask] = stored[idx[mask] - 1]
    return out
