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

import numpy as np

from .errors import _record


class FactorFamily(_record("FactorFamily", "r alpha table")):
    """A rule producing the positive-index factors v_1, v_2, ...

    Exactly one of ``alpha`` and ``table`` is given.  With ``alpha`` the
    factor at k is the sinc power ``(sin(alpha*k/2) / k) ** (1+r)`` with no
    sinc normalization; with ``table`` the factors are its stored entries.
    """

    __slots__ = ()

    def __new__(cls, r: int, alpha: float | None = None, table: tuple[float, ...] | None = None):
        try:
            r = operator.index(r)
        except TypeError:
            raise ValueError(f"r must be an integer >= 0, got {r!r}") from None
        if r < 0:
            raise ValueError(f"r must be an integer >= 0, got {r!r}")
        if (alpha is None) == (table is None):
            raise ValueError("a factor family takes exactly one of alpha and table")
        if table is not None:
            table = tuple(float(x) for x in table)
            if not table:
                raise ValueError("custom-table family needs a non-empty table")
        elif not alpha > 0:
            raise ValueError(f"sinc-power family needs alpha > 0, got {alpha!r}")
        elif not math.isfinite(alpha):
            raise ValueError(f"sinc-power family needs a finite alpha, got {alpha!r}")
        return super().__new__(cls, r, alpha, table)


def default_alpha(n_nodes: int) -> float:
    """The standard sinc-power width, 2*pi/N."""
    return 2.0 * math.pi / n_nodes


def sinc_power(r: int, alpha: float) -> FactorFamily:
    """Sinc-power family with smoothness r and width parameter alpha."""
    return FactorFamily(r=r, alpha=alpha)


def custom_table(values, r: int) -> FactorFamily:
    """Finite factor table; the alias series is summed to its end."""
    return FactorFamily(r=r, table=values)


def factor_values(family: FactorFamily, indices: np.ndarray) -> np.ndarray:
    """Vectorized factors for the alias series.

    Where x = alpha*j/2 is a multiple of pi, sin(x) computes to rounding
    noise; a v_j with |sin(x)| <= 4*eps*|x| (that is, |sin(x)/j| <=
    2*eps*alpha) is exactly 0, so a harmonic with no nonzero factor fails the
    degeneracy gate.  Custom-table indices beyond the stored range evaluate
    to 0.0: the finite table is the whole family, so alias terms past its end
    simply do not exist.
    """
    idx = np.asarray(indices)
    if family.table is None:
        j = idx.astype(float)
        q = np.sin(family.alpha / 2.0 * j) / j
        q[np.abs(q) <= 2.0 * np.finfo(float).eps * family.alpha] = 0.0
        return q ** (1 + family.r)
    out = np.zeros(idx.shape, dtype=float)
    stored = np.asarray(family.table, dtype=float)
    mask = (idx >= 1) & (idx <= len(stored))
    out[mask] = stored[idx[mask] - 1]
    return out
