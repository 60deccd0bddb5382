"""The 16-element sign-distribution table A1..D4.

Each element fixes four signs: the signs in front of the alias sum and in
front of the v_{mN-k} term, separately for the cosine-type and sine-type
basis series.  Element A1 reproduces the plain basis functions: its cosine
series carries "+ ... +" and its sine series "+ ... -".
"""

from __future__ import annotations

from .errors import UnknownElement, _record


class SignMatrix(_record("SignMatrix", "name cos_outer cos_inner sin_outer sin_inner")):
    """One element of the sign table.

    Row 1 of the written 2x2 element is the cosine series (outer sign before
    the sum, inner sign before v_{mN-k}); row 2 plays the same roles for the
    sine series.
    """

    __slots__ = ()

    def __new__(cls, name: str, cos_outer: int, cos_inner: int, sin_outer: int, sin_inner: int):
        for s in (cos_outer, cos_inner, sin_outer, sin_inner):
            if s not in (1, -1):
                raise ValueError(f"signs must be +1 or -1, got {s!r}")
        return super().__new__(cls, name, cos_outer, cos_inner, sin_outer, sin_inner)


# (cos_outer, cos_inner, sin_outer, sin_inner), row-major table order.
_TABLE: dict[str, tuple[int, int, int, int]] = {
    "A1": (+1, +1, +1, -1),
    "A2": (+1, +1, +1, +1),
    "A3": (+1, -1, +1, +1),
    "A4": (+1, -1, +1, -1),
    "B1": (-1, +1, +1, -1),
    "B2": (-1, +1, +1, +1),
    "B3": (-1, -1, +1, +1),
    "B4": (-1, -1, +1, -1),
    "C1": (-1, +1, -1, -1),
    "C2": (-1, +1, -1, +1),
    "C3": (-1, -1, -1, +1),
    "C4": (-1, -1, -1, -1),
    "D1": (+1, +1, -1, -1),
    "D2": (+1, +1, -1, +1),
    "D3": (+1, -1, -1, +1),
    "D4": (+1, -1, -1, -1),
}

ELEMENT_NAMES: tuple[str, ...] = tuple(_TABLE)


def lookup(name: str) -> SignMatrix:
    """The fixed sign matrix for one of the labels A1..D4."""
    try:
        co, ci, so, si = _TABLE[name]
    except KeyError:
        raise UnknownElement(f"unknown sign element {name!r}; expected one of A1..D4") from None
    return SignMatrix(name=name, cos_outer=co, cos_inner=ci, sin_outer=so, sin_inner=si)

