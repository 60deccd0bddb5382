"""Uniform node grids on [0, 2*pi).

Two grid kinds are used throughout: kind 0 starts at zero, kind 1 is shifted
by half a spacing so its nodes fall strictly between consecutive kind-0 nodes.
The node count is always odd.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import InvalidGrid, _record


class GridSpec(_record("GridSpec", "n_nodes kind")):
    """An equispaced grid of odd size N on [0, 2*pi).

    With 1-based node index j (as in the written formulas), kind 0 places node
    j at 2*pi*(j-1)/N and kind 1 at pi*(2j-1)/N.  All code below is 0-based.
    """

    __slots__ = ()

    def __new__(cls, n_nodes: int, kind: int = 0):
        try:
            n = operator.index(n_nodes)
            k = operator.index(kind)
        except TypeError:
            raise InvalidGrid(
                f"n_nodes and kind must be integers, got {n_nodes!r}, {kind!r}"
            ) from None
        if n % 2 == 0 or n < 3:
            raise InvalidGrid(f"n_nodes must be an odd integer >= 3, got {n}")
        if k not in (0, 1):
            raise InvalidGrid(f"kind must be 0 or 1, got {k}")
        return super().__new__(cls, n, k)

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.n_nodes

    @property
    def n_harmonics(self) -> int:
        """Number of representable harmonics, (N - 1) / 2."""
        return (self.n_nodes - 1) // 2


def nodes(spec: GridSpec) -> np.ndarray:
    """Node angles of the grid, strictly increasing in [0, 2*pi).

    Parameters
    ----------
    spec : GridSpec
        Validated grid description.

    Returns
    -------
    np.ndarray
        Exactly ``spec.n_nodes`` angles in radians.  Consecutive spacing is
        2*pi/N for both kinds; the kind-1 grid equals the kind-0 grid shifted
        by pi/N.
    """
    j = np.arange(spec.n_nodes, dtype=float)
    if spec.kind == 0:
        return 2.0 * np.pi * j / spec.n_nodes
    return np.pi * (2.0 * j + 1.0) / spec.n_nodes
