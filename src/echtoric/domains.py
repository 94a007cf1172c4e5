"""Toric domains in the moment quadrant.

A domain is stored through its boundary curve, the piece that is not on
the coordinate axes, read from the y-axis endpoint to the x-axis
endpoint.  Two kinds are supported:

* ``concave``: the region under the graph of a convex, strictly
  decreasing piecewise linear function hitting both axes.  Every
  boundary edge goes strictly down and to the right and the slopes
  strictly increase.

* ``convex``: the region whose closure of the complement of the axes
  part is convex; the closed polygon (0,0), v0, ..., vn must be
  strictly convex, traversed clockwise.  The curve may overhang: edges
  can point down-left, so x need not be monotone.

A domain is (kind, D, ints), the boundary times a denominator D as
integer pairs; ToricDomain.of takes rational vertices, and boundary is
their view as Points.  Construction collapses collinear boundary
vertices, divides out the gcd of D and the integers and validates what
is left; validation insists on strict turns, so every stored boundary
is in canonical form and equality of domains is equality of tuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from operator import index
from typing import Iterable, Sequence, Union

from .errors import DomainError
from .geometry import Point, RationalLike, ratio
from .records import Record

PointLike = Union[Point, Sequence[RationalLike]]


def _cleared(points: Iterable[PointLike]) -> tuple[int, tuple]:
    """Rational vertices as the lcm D of their denominators and times D."""
    parts = []
    for p in points:
        seq = (p.x, p.y) if isinstance(p, Point) else tuple(p)
        if len(seq) != 2:
            raise DomainError(f"boundary vertex needs two coordinates, got {p!r}")
        parts.append(ratio(seq[0]) + ratio(seq[1]))
    D = lcm(*(d for _, q, _, s in parts for d in (q, s)))
    return D, tuple((p * (D // q), r * (D // s)) for p, q, r, s in parts)


def _collapse(pts: Sequence[tuple[int, int]]) -> list[int]:
    """Indices of the integer vertices kept.

    Repeats are dropped and collinear runs that keep the same heading
    merged; a fold-back (cross 0, opposite heading) is left in place so
    that validation rejects it.
    """
    keep: list[int] = []
    for i, p in enumerate(pts):
        if keep and p == pts[keep[-1]]:
            continue
        keep.append(i)
        cx, cy = p
        while len(keep) >= 3:
            (ax, ay), (bx, by) = pts[keep[-3]], pts[keep[-2]]
            ux, uy, vx, vy = bx - ax, by - ay, cx - bx, cy - by
            if ux * vy == uy * vx and ux * vx + uy * vy > 0:
                del keep[-2]
            else:
                break
    return keep


def _edge_zone(dx: int, dy: int, D: int = 1) -> int:
    """Clockwise sectors a convex boundary edge (dx, dy)/D may point into.

    0 up-right, 1 right, 2 down-right, 3 down, 4 down-left.  Anything
    else (left, up, up-left) cannot occur on a valid boundary.
    """
    if dx > 0 and dy > 0:
        return 0
    if dx > 0 and dy == 0:
        return 1
    if dx > 0 and dy < 0:
        return 2
    if dx == 0 and dy < 0:
        return 3
    if dx < 0 and dy < 0:
        return 4
    raise DomainError(f"boundary edge ({Fraction(dx, D)}, {Fraction(dy, D)}) "
                      "points out of the allowed sectors")


def _check_concave(pts: Sequence[tuple]) -> None:
    """The concave-boundary rules, on (x, y) pairs over any denominator.

    They check ToricDomain's concave boundaries on integers, and in the
    tests the cut pieces and folded flanks that weights proves valid.
    """
    (x0, y0), (xn, yn) = pts[0], pts[-1]
    if x0 != 0 or y0 <= 0:
        raise DomainError("boundary must start on the positive y-axis")
    if yn != 0 or xn <= 0:
        raise DomainError("boundary must end on the positive x-axis")
    pdx, pdy = 0, -1  # straight down: every edge turns left from it
    for (px, py), (qx, qy) in zip(pts, pts[1:]):
        dx, dy = qx - px, qy - py
        if dx <= 0 or dy >= 0:
            raise DomainError(
                "concave boundary edges must go strictly down-right")
        if pdx * dy - pdy * dx <= 0:
            raise DomainError("concave boundary slopes must strictly increase")
        pdx, pdy = dx, dy


class ToricDomain(Record):
    """A domain through its boundary: kind, a positive denominator D and
    the boundary times D, as integer pairs."""

    kind: str
    D: int
    ints: tuple[tuple[int, int], ...]

    def __init__(self, kind: str, D: int,
                 ints: Iterable[tuple[int, int]]) -> None:
        self.__post_init__(kind, D, ints)

    def __post_init__(self, kind: str, D: int,
                      ints: Iterable[tuple[int, int]]) -> None:
        """Canonicalise, set and validate the fields, for __init__.
        bench/spans.py times the domains layer by wrapping it by name."""
        if kind not in ("concave", "convex"):
            raise DomainError(f"unknown domain kind {kind!r}")
        try:
            D = index(D)
            ints = tuple([(index(x), index(y)) for x, y in ints])
        except TypeError:
            raise DomainError(
                "boundary denominator and vertices must be integers") from None
        if D <= 0:
            raise DomainError("boundary denominator must be positive")
        keep = _collapse(ints)
        if len(keep) < len(ints):
            ints = [ints[i] for i in keep]
        # the canonical D is the least one, which no merged vertex needs
        g = gcd(D, *chain.from_iterable(ints))
        if g > 1:
            D, ints = D // g, [(x // g, y // g) for x, y in ints]
        pts = tuple(ints)
        d = self.__dict__
        d["kind"] = kind
        d["D"] = D
        d["ints"] = pts
        if len(pts) < 2:
            raise DomainError("boundary needs at least two vertices")
        (x0, y0), (xn, yn) = pts[0], pts[-1]
        if x0 != 0 or y0 <= 0:
            raise DomainError("boundary must start on the positive y-axis, "
                              f"got {self._point(0)}")
        if yn != 0 or xn <= 0:
            raise DomainError("boundary must end on the positive x-axis, "
                              f"got {self._point(-1)}")
        for i in range(1, len(pts) - 1):
            if pts[i][0] <= 0 or pts[i][1] <= 0:
                raise DomainError(f"interior boundary vertex {self._point(i)} "
                                  "touches an axis")
        if kind == "concave":
            _check_concave(pts)
        else:
            edges = [(qx - px, qy - py)
                     for (px, py), (qx, qy) in zip(pts, pts[1:])]
            zones = [_edge_zone(dx, dy, D) for dx, dy in edges]
            for z1, z2 in zip(zones, zones[1:]):
                if z2 < z1:
                    raise DomainError("convex boundary direction must rotate clockwise")
            for (ux, uy), (vx, vy) in zip(edges, edges[1:]):
                if ux * vy - uy * vx >= 0:
                    raise DomainError("convex boundary must turn strictly clockwise")
            # the three corner turns of the closed polygon (at (0,0), v0
            # and vn) are then strict automatically: the first edge has
            # dx > 0 because the vertex after v0 lies off the y-axis, and
            # the last edge has dy < 0 because its start lies off the
            # x-axis

    # -- construction helpers -------------------------------------------------

    @classmethod
    def of(cls, kind: str, points: Iterable[PointLike]) -> "ToricDomain":
        """The domain whose boundary has the given rational vertices."""
        return cls(kind, *_cleared(points))

    @classmethod
    def concave(cls, points: Iterable[PointLike]) -> "ToricDomain":
        return cls.of("concave", points)

    @classmethod
    def convex(cls, points: Iterable[PointLike]) -> "ToricDomain":
        return cls.of("convex", points)

    @classmethod
    def ball(cls, a: RationalLike, kind: str = "concave") -> "ToricDomain":
        p, q = ratio(a)
        if p <= 0:
            raise DomainError("ball size must be positive")
        return cls(kind, q, ((0, p), (p, 0)))

    @classmethod
    def ellipsoid(cls, a: RationalLike, b: RationalLike,
                  kind: str = "concave") -> "ToricDomain":
        """Triangle with x-intercept a and y-intercept b."""
        (p, q), (r, s) = ratio(a), ratio(b)
        if p <= 0 or r <= 0:
            raise DomainError("ellipsoid radii must be positive")
        return cls(kind, q * s, ((0, r * q), (p * s, 0)))

    @cached_property
    def boundary(self) -> tuple[Point, ...]:
        return tuple(map(self._point, range(len(self.ints))))

    def _point(self, i: int) -> Point:
        return Point(*(Fraction(c, self.D) for c in self.ints[i]))

    # -- basic geometry ---------------------------------------------------

    def twice_area(self) -> int:
        """Twice the area times D squared: the area is this over 2 D^2."""
        # shoelace of the cycle origin, v0, ..., vn; the two axis legs
        # contribute nothing because they head straight at the origin
        pts = self.ints
        return abs(sum(px * qy - py * qx
                       for (px, py), (qx, qy) in zip(pts, pts[1:])))

    def area(self) -> Fraction:
        return Fraction(self.twice_area(), 2 * self.D * self.D)

    def scale(self, factor: RationalLike) -> "ToricDomain":
        p, q = ratio(factor)
        if p <= 0:
            raise DomainError("scale factor must be positive")
        return ToricDomain(self.kind, self.D * q,
                           tuple((x * p, y * p) for x, y in self.ints))


def contains(outer: ToricDomain, inner: ToricDomain) -> bool:
    """Exact test that the region of inner sits inside the region of outer.

    Both boundaries are brought onto one integer grid, the common
    multiple of their denominators, and every comparison below is a
    cross-multiplied integer one.  Against a convex outer every vertex
    of inner's region polygon is tested on every edge of outer's.
    Against a concave outer both upper envelopes are piecewise linear,
    so comparing them at the union of their breakpoints up to inner's
    xmax is conclusive; one merge walk visits those x in increasing
    order and compares each breakpoint with the other envelope's
    current segment, in O(n + m) for n and m breakpoints.
    """
    L = lcm(outer.D, inner.D)
    so, si = L // outer.D, L // inner.D
    bd = [(x * so, y * so) for x, y in outer.ints]
    if outer.kind == "convex":
        # the region of inner lies in the convex hull of its polygon
        # vertices, so vertex membership settles it; the two axis edges
        # of outer's polygon keep the vertices in the quadrant
        poly = [(0, 0)] + bd
        edges = [(ax, ay, bx - ax, by - ay)
                 for (ax, ay), (bx, by) in zip(poly, poly[1:] + poly[:1])]
        return all(ex * (py - ay) <= ey * (px - ax)
                   for px, py in [(0, 0)] + [(x * si, y * si)
                                             for x, y in inner.ints]
                   for ax, ay, ex, ey in edges)
    # inner's upper envelope, x -> max{y : (x, y) in the region}: all of
    # a concave boundary, a convex one up to its first vertex of maximal x
    xs = [x for x, _ in inner.ints]
    end = len(xs) if inner.kind == "concave" else xs.index(max(xs)) + 1
    env = [(x * si, y * si) for x, y in inner.ints[:end]]
    if env[-1][0] > bd[-1][0]:
        return False
    # env[i] and bd[j] are the first breakpoints not yet compared; both
    # start at x = 0, and bd cannot run out first since its xmax is at
    # least env's.  A breakpoint (x, y) against the segment from
    # (ax, ay) to (bx, by), ax < x < bx, is below it exactly when
    # y (bx - ax) <= ay (bx - ax) + (by - ay)(x - ax).
    i = j = 0
    while i < len(env):
        (px, py), (qx, qy) = env[i], bd[j]
        if px == qx:
            ok = py <= qy
            i += 1
            j += 1
        elif px < qx:
            ax, ay = bd[j - 1]
            ok = py * (qx - ax) <= ay * (qx - ax) + (qy - ay) * (px - ax)
            i += 1
        else:
            ax, ay = env[i - 1]
            ok = ay * (px - ax) + (py - ay) * (qx - ax) <= qy * (px - ax)
            j += 1
        if not ok:
            return False
    return True
