"""Exact rational plane geometry used by every other module.

Everything here is a thin layer over fractions.Fraction: points, cross
products, shoelace areas and the affine maps with unimodular integer
linear part that show up when toric domains are cut and reassembled.
Floats are rejected at the boundary so no rounding can creep in.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import GeometryError

RationalLike = Union[int, str, Fraction]

_RATIONAL = re.compile(r"-?\d+(/\d+)?")


def rational(value: RationalLike) -> Fraction:
    """Coerce to an exact rational, refusing floats outright.

    Text must be "n" or "p/q" with an optional minus sign: decimals,
    exponents, spaces and a plus sign are refused.
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


def polygon_area(vertices: Sequence[Point]) -> Fraction:
    """Absolute shoelace area of a closed polygon given by its vertex cycle."""
    n = len(vertices)
    if n < 3:
        return Fraction(0)
    twice = Fraction(0)
    for i in range(n):
        p, q = vertices[i], vertices[(i + 1) % n]
        twice += cross(p, q)
    return abs(twice) / 2


@dataclass(frozen=True)
class AffineUnimodularMap:
    """p -> M p + t with M an integer matrix of determinant +-1.

    These are exactly the maps that preserve the lattice and (up to sign)
    the symplectic form, so cutting constructions compose them freely.
    """

    a: int
    b: int
    c: int
    d: int
    t: Point

    def __post_init__(self) -> None:
        for entry in (self.a, self.b, self.c, self.d):
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise GeometryError(f"matrix entries must be ints, got {entry!r}")
        if self.a * self.d - self.b * self.c not in (1, -1):
            raise GeometryError("linear part must have determinant +-1")

    @staticmethod
    def identity() -> "AffineUnimodularMap":
        return AffineUnimodularMap(1, 0, 0, 1, Point(0, 0))

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def apply(self, p: Point) -> Point:
        return Point(self.a * p.x + self.b * p.y + self.t.x,
                     self.c * p.x + self.d * p.y + self.t.y)

    def apply_linear(self, v: Point) -> Point:
        return Point(self.a * v.x + self.b * v.y, self.c * v.x + self.d * v.y)

    def compose(self, inner: "AffineUnimodularMap") -> "AffineUnimodularMap":
        """self after inner: (self . inner)(p) = self(inner(p))."""
        return AffineUnimodularMap(
            self.a * inner.a + self.b * inner.c,
            self.a * inner.b + self.b * inner.d,
            self.c * inner.a + self.d * inner.c,
            self.c * inner.b + self.d * inner.d,
            self.apply(inner.t),
        )

    def inverse(self) -> "AffineUnimodularMap":
        s = self.det()  # +-1, so the inverse matrix stays integral
        ia, ib, ic, id_ = self.d * s, -self.b * s, -self.c * s, self.a * s
        tx = -(ia * self.t.x + ib * self.t.y)
        ty = -(ic * self.t.x + id_ * self.t.y)
        return AffineUnimodularMap(ia, ib, ic, id_, Point(tx, ty))
