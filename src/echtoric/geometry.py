"""Exact rational plane geometry used by every other module.

Everything here is a thin layer over fractions.Fraction: the one
rational parser, points and cross products.  Floats are rejected at
the boundary so no rounding can creep in.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import GeometryError

RationalLike = Union[int, str, Fraction]

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def rational(value: RationalLike) -> Fraction:
    """Coerce to an exact rational, refusing floats outright.

    Text must be "n" or "p/q" in ASCII digits with an optional minus
    sign: decimals, exponents, spaces, a plus sign and other digits,
    such as the Arabic-Indic or the full-width ones, are refused.
    """
    if isinstance(value, bool):
        raise GeometryError(f"not a rational value: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            if _RATIONAL.fullmatch(value):
                return Fraction(value)
        except ZeroDivisionError:
            pass
        raise GeometryError(f"not a rational value: {value!r}")
    raise GeometryError(f"not a rational value: {value!r} (floats are not accepted)")


@dataclass(frozen=True)
class Point:
    x: Fraction
    y: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", rational(self.x))
        object.__setattr__(self, "y", rational(self.y))

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    def scale(self, factor: RationalLike) -> "Point":
        f = rational(factor)
        return Point(f * self.x, f * self.y)


def cross(v: Point, w: Point) -> Fraction:
    """Signed cross product v.x*w.y - v.y*w.x."""
    return v.x * w.y - v.y * w.x
