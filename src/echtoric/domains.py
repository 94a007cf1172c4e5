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

Collinear boundary vertices are collapsed on construction; validation
afterwards insists on strict turns, so every stored boundary is in
canonical form and equality of domains is equality of tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import DomainError
from .geometry import Point, RationalLike, cross, polygon_area, rational

PointLike = Union[Point, Sequence[RationalLike]]


def _as_point(p: PointLike) -> Point:
    if isinstance(p, Point):
        return p
    seq = tuple(p)
    if len(seq) != 2:
        raise DomainError(f"boundary vertex needs two coordinates, got {p!r}")
    return Point(rational(seq[0]), rational(seq[1]))


def _collapse(points: Sequence[Point]) -> list[Point]:
    # drop repeats and merge collinear runs that keep the same heading;
    # a fold-back (cross 0, opposite heading) is left in place so that
    # validation rejects it
    out: list[Point] = []
    for p in points:
        if out and p == out[-1]:
            continue
        out.append(p)
        while len(out) >= 3:
            a, b, c = out[-3], out[-2], out[-1]
            ux, uy = b.x - a.x, b.y - a.y
            vx, vy = c.x - b.x, c.y - b.y
            if ux * vy == uy * vx and ux * vx + uy * vy > 0:
                del out[-2]
            else:
                break
    return out


def _edge_zone(dx: Union[int, Fraction], dy: Union[int, Fraction]) -> int:
    """Clockwise sectors a convex boundary edge (dx, dy) may point into.

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
    raise DomainError(
        f"boundary edge ({dx}, {dy}) points out of the allowed sectors")


def _check_concave(pts: Sequence[tuple]) -> None:
    """The concave-boundary rules, on (x, y) pairs of ints or Fractions.

    They check ToricDomain's concave boundaries and the folded flanks of
    inner approximations.
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


@dataclass(frozen=True)
class ToricDomain:
    kind: str
    boundary: tuple[Point, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("concave", "convex"):
            raise DomainError(f"unknown domain kind {self.kind!r}")
        pts = _collapse([_as_point(p) for p in self.boundary])
        object.__setattr__(self, "boundary", tuple(pts))
        self._validate()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def concave(cls, points: Iterable[PointLike]) -> "ToricDomain":
        return cls("concave", tuple(points))

    @classmethod
    def convex(cls, points: Iterable[PointLike]) -> "ToricDomain":
        return cls("convex", tuple(points))

    @classmethod
    def ball(cls, a: RationalLike, kind: str = "concave") -> "ToricDomain":
        r = rational(a)
        if r <= 0:
            raise DomainError("ball size must be positive")
        return cls(kind, (Point(0, r), Point(r, 0)))

    @classmethod
    def ellipsoid(cls, a: RationalLike, b: RationalLike,
                  kind: str = "concave") -> "ToricDomain":
        """Triangle with x-intercept a and y-intercept b."""
        ra, rb = rational(a), rational(b)
        if ra <= 0 or rb <= 0:
            raise DomainError("ellipsoid radii must be positive")
        return cls(kind, (Point(0, rb), Point(ra, 0)))

    # -- validation -----------------------------------------------------------

    def _validate(self) -> None:
        bd = self.boundary
        if len(bd) < 2:
            raise DomainError("boundary needs at least two vertices")
        v0, vn = bd[0], bd[-1]
        if v0.x != 0 or v0.y <= 0:
            raise DomainError(f"boundary must start on the positive y-axis, got {v0}")
        if vn.y != 0 or vn.x <= 0:
            raise DomainError(f"boundary must end on the positive x-axis, got {vn}")
        for p in bd[1:-1]:
            if p.x <= 0 or p.y <= 0:
                raise DomainError(f"interior boundary vertex {p} touches an axis")
        if self.kind == "concave":
            _check_concave([(p.x, p.y) for p in bd])
        else:
            edges = [q - p for p, q in zip(bd, bd[1:])]
            zones = [_edge_zone(e.x, e.y) for e in edges]
            for z1, z2 in zip(zones, zones[1:]):
                if z2 < z1:
                    raise DomainError("convex boundary direction must rotate clockwise")
            for e1, e2 in zip(edges, edges[1:]):
                if cross(e1, e2) >= 0:
                    raise DomainError("convex boundary must turn strictly clockwise")
            # the three corner turns of the closed polygon (at (0,0), v0
            # and vn) are then strict automatically: the first edge has
            # dx > 0 because the vertex after v0 lies off the y-axis, and
            # the last edge has dy < 0 because its start lies off the
            # x-axis

    # -- basic geometry ---------------------------------------------------

    def region_polygon(self) -> tuple[Point, ...]:
        """Closed vertex cycle of the region, clockwise from the origin."""
        return (Point(0, 0),) + self.boundary

    def area(self) -> Fraction:
        return polygon_area(self.region_polygon())

    def xmax(self) -> Fraction:
        return max(p.x for p in self.boundary)

    def ymax(self) -> Fraction:
        return max(p.y for p in self.boundary)

    def scale(self, factor: RationalLike) -> "ToricDomain":
        f = rational(factor)
        if f <= 0:
            raise DomainError("scale factor must be positive")
        return ToricDomain(self.kind, tuple(p.scale(f) for p in self.boundary))

    def upper_envelope(self) -> tuple[Point, ...]:
        """Graph of x -> max{y : (x, y) in the region}, as breakpoints.

        For a concave domain this is the whole boundary.  For a convex
        domain it is the chain from v0 up to the first vertex of
        maximal x; an overhanging tail beyond that vertex only bounds
        the region from the right.
        """
        if self.kind == "concave":
            return self.boundary
        xm = self.xmax()
        idx = next(i for i, p in enumerate(self.boundary) if p.x == xm)
        return self.boundary[:idx + 1]

    def envelope_value(self, x: RationalLike) -> Fraction:
        """Evaluate the upper envelope at x (must lie in [0, xmax])."""
        xv = rational(x)
        env = self.upper_envelope()
        if xv < 0 or xv > env[-1].x:
            raise DomainError(f"x = {xv} outside the domain footprint")
        for p, q in zip(env, env[1:]):
            if p.x <= xv <= q.x:
                return p.y + (q.y - p.y) * (xv - p.x) / (q.x - p.x)
        return env[-1].y  # xv == xmax and the loop closed exactly there

    def contains_point(self, p: PointLike) -> bool:
        pt = _as_point(p)
        if pt.x < 0 or pt.y < 0:
            return False
        if self.kind == "concave":
            if pt.x > self.xmax():
                return False
            return pt.y <= self.envelope_value(pt.x)
        poly = self.region_polygon()
        n = len(poly)
        for i in range(n):
            a, b = poly[i], poly[(i + 1) % n]
            if cross(b - a, pt - a) > 0:
                return False
        return True


def contains(outer: ToricDomain, inner: ToricDomain) -> bool:
    """Exact test that the region of inner sits inside the region of outer.

    Against a convex outer every vertex of inner's region polygon is
    tested on every edge of outer's.  Against a concave outer both
    upper envelopes are piecewise linear, so comparing them at the union
    of their breakpoints up to inner's xmax is conclusive; one merge
    walk visits those x in increasing order and interpolates each
    envelope on its current segment, in O(n + m) for n and m
    breakpoints.
    """
    if outer.kind == "convex":
        # the region of inner lies in the convex hull of its polygon
        # vertices, so vertex membership settles it; the two axis edges
        # of outer's polygon keep the vertices in the quadrant
        poly = outer.region_polygon()
        edges = [(a.x, a.y, b.x - a.x, b.y - a.y)
                 for a, b in zip(poly, poly[1:] + poly[:1])]
        return all(ex * (p.y - ay) <= ey * (p.x - ax)
                   for p in inner.region_polygon()
                   for ax, ay, ex, ey in edges)
    if inner.xmax() > outer.xmax():
        return False
    env = inner.upper_envelope()
    bd = outer.boundary
    # env[i] and bd[j] are the first breakpoints not yet compared; both
    # start at x = 0, and bd cannot run out first since its xmax is at
    # least env's
    i = j = 0
    while i < len(env):
        p, q = env[i], bd[j]
        if p.x <= q.x:
            y_in = p.y
            y_out = q.y if p.x == q.x else _interpolate(bd[j - 1], q, p.x)
            j += p.x == q.x
            i += 1
        else:
            y_in = _interpolate(env[i - 1], p, q.x)
            y_out = q.y
            j += 1
        if y_in > y_out:
            return False
    return True


def _interpolate(p: Point, q: Point, x: Fraction) -> Fraction:
    """Height at x of the segment pq, for p.x < x < q.x."""
    return p.y + (q.y - p.y) * (x - p.x) / (q.x - p.x)
