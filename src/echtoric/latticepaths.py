"""Lattice paths, their point counts and their support functionals.

A path is its kind and its lattice vertices as integer pairs, which
everything below reads; vertices is their view as Points.

A convex path runs from the y-axis to the x-axis turning (weakly)
clockwise; together with the axes it closes up a convex lattice region
whose point count Pick's formula delivers as area + boundary/2 + 1.
Degenerate paths (a bare origin, a spike down an axis) are allowed and
the same formula still counts correctly, reading the flat region as a
doubly walked segment.

A concave path steps strictly down-right turning (weakly) counter-
clockwise; its count is taken away from the path points, i.e. only the
region points not sitting on the path itself.

The functional of a path against a domain adds up, edge by edge, the
extremal cross product against the region vertices: the maximum for
convex domains, the minimum over the curved boundary for concave ones,
summed on the domain's integers and divided by its D once.
Cutting a convex path at its own diagonal level produces a ball path
plus two concave paths, its flanks folded by the same fold that splits a
convex domain for its weight expansion (weights._fold), which takes
collinear vertices at the peak as they come; count and functional
identities across that cut are what the tests lean on.

oracle_convex_caps_upto recovers capacity values of a convex domain by
raw minimisation over all admissible paths, independently of any weight
calculus, and returns witness paths.  Its search runs on plain
integers throughout, set-up included.  What it walks through is split
in two.  The geometry of a search, its clockwise step directions, how
far each may turn, and the step table of each vertex it reaches,
depends only on (kmax, box); it is built once per process for both
passes and shared by every domain (_passes).  The region's vertices are
the domain's own integers, and the support of a direction, an integer
cross product maximum, belongs to one request: the seeding pass and the
full pass of a box share one support table, indexed by the full pass's
directions, and a support is computed the first time either walk takes
its direction.
It prunes each partial path on a lower bound for all its completions
and on the lattice points its prefix already encloses, which drops no
path that could change the result (see _search).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from operator import index
from typing import Iterable, Optional

from .domains import PointLike, ToricDomain, _cleared, _edge_zone
from .errors import DomainError, LimitError
from .geometry import Point, rational
from .weights import _fold

@dataclass(frozen=True)
class LatticePath:
    """A path through its lattice vertices, as integer pairs."""

    kind: str
    ints: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.kind not in ("convex", "concave"):
            raise DomainError(f"unknown path kind {self.kind!r}")
        pts = tuple((index(x), index(y)) for x, y in self.ints)
        object.__setattr__(self, "ints", pts)
        if not pts:
            raise DomainError("a path needs at least one vertex")
        if any(x < 0 or y < 0 for x, y in pts):
            raise DomainError("path vertices must stay in the quadrant")
        if pts[0][0] != 0:
            raise DomainError("paths start on the y-axis")
        if pts[-1][1] != 0:
            raise DomainError("paths end on the x-axis")
        edges = self.edges()
        if any(dx == 0 and dy == 0 for dx, dy in edges):
            raise DomainError("zero-length path edge")
        if self.kind == "concave":
            for dx, dy in edges:
                if not (dx > 0 and dy < 0):
                    raise DomainError("concave path edges go strictly down-right")
            for (ux, uy), (vx, vy) in zip(edges, edges[1:]):
                if ux * vy - uy * vx < 0:
                    raise DomainError("concave paths turn counterclockwise")
        else:
            zones = [_edge_zone(dx, dy) for dx, dy in edges]
            for z1, z2 in zip(zones, zones[1:]):
                if z2 < z1:
                    raise DomainError("convex path direction must rotate clockwise")
            for (ux, uy), (vx, vy) in zip(edges, edges[1:]):
                if ux * vy - uy * vx > 0:
                    raise DomainError("convex paths turn clockwise")

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        return tuple(Point(x, y) for x, y in self.ints)

    def edges(self) -> list[tuple[int, int]]:
        pts = self.ints
        return [(qx - px, qy - py)
                for (px, py), (qx, qy) in zip(pts, pts[1:])]

    @classmethod
    def of(cls, kind: str, points: Iterable[PointLike]) -> "LatticePath":
        """The path through rational vertices that are lattice points."""
        D, pts = _cleared(points)
        for x, y in pts:
            if x % D or y % D:
                vertex = Point(Fraction(x, D), Fraction(y, D))
                raise DomainError(f"path vertex {vertex} is not a lattice point")
        return cls(kind, tuple((x // D, y // D) for x, y in pts))

    @classmethod
    def convex(cls, points: Iterable[PointLike]) -> "LatticePath":
        return cls.of("convex", points)

    @classmethod
    def concave(cls, points: Iterable[PointLike]) -> "LatticePath":
        return cls.of("concave", points)


def _steps(path: LatticePath) -> int:
    """Lattice points on the path after its first."""
    return sum(gcd(dx, dy) for dx, dy in path.edges())


def count_convex(path: LatticePath) -> int:
    """Lattice points in the closed region cut off by the path and axes."""
    # Pick on the cycle origin, v0, ..., vend; the two axis legs head
    # straight at the origin, so they add nothing to the shoelace
    pts = path.ints
    twice_a = abs(sum(px * qy - py * qx
                      for (px, py), (qx, qy) in zip(pts, pts[1:])))
    b = pts[0][1] + pts[-1][0] + _steps(path)
    assert (twice_a + b) % 2 == 0
    return (twice_a + b) // 2 + 1


def count_concave(path: LatticePath) -> int:
    """Lattice points of the region that do not lie on the path itself."""
    return count_convex(path) - 1 - _steps(path)


def ell_convex(domain: ToricDomain, path: LatticePath) -> Fraction:
    """Sum over path edges of the maximal cross product with the region."""
    if domain.kind != "convex":
        raise DomainError("ell_convex expects a convex domain")
    poly = [(0, 0), *domain.ints]
    return Fraction(sum(max(dx * py - dy * px for px, py in poly)
                        for dx, dy in path.edges()), domain.D)


def ell_concave(domain: Optional[ToricDomain], path: LatticePath) -> Fraction:
    """Sum of minimal cross products against the curved boundary.

    domain=None stands for an empty complement piece and contributes 0
    no matter the path; this keeps cut identities uniform when a cut
    produces only one piece.
    """
    if domain is None:
        return Fraction(0)
    if domain.kind != "concave":
        raise DomainError("ell_concave expects a concave domain or None")
    return Fraction(sum(min(dx * py - dy * px for px, py in domain.ints)
                        for dx, dy in path.edges()), domain.D)


@dataclass(frozen=True)
class PathSplit:
    """A convex path cut at its own diagonal x + y = level.

    head is the straight diagonal path of that level, left and right are
    the two flanks folded into standard concave position (possibly the
    trivial one-point path when a flank is empty).
    """

    level: int
    head: LatticePath
    left: LatticePath
    right: LatticePath


def split_path(path: LatticePath, level=None) -> PathSplit:
    if path.kind != "convex":
        raise DomainError("only convex paths are split")
    a = max(x + y for x, y in path.ints)
    if level is not None and rational(level) != a:
        raise DomainError(f"path peaks at level {a}, not {level}")
    # lattice vertices and a level on a vertex: the flanks come back at
    # scale 1
    left, right = _fold(path.ints, a)
    head = ((0, a), (a, 0)) if a else ((0, 0),)
    return PathSplit(a, LatticePath("convex", head),
                     LatticePath("concave", left[0] if left else ((0, 0),)),
                     LatticePath("concave", right[0] if right else ((0, 0),)))


def _clockwise_directions(box: int) -> list[tuple[int, int]]:
    """Primitive (dx, dy) with max(|dx|, |dy|) <= box, in path order.

    The order is the one convex paths turn through: up-right, right,
    down-right, down, down-left, clockwise within each sector.  The
    up-right sector runs from steep to flat, i.e. (p, q), (1, 1), (q, p)
    for the reduced fractions 0 < p/q < 1 with q <= box, taken in
    increasing order and then in decreasing order; the Farey recurrence
    produces them in that order.  The down-right and down-left sectors
    are that run turned a quarter and a half turn clockwise.
    """
    farey: list[tuple[int, int]] = []
    a, b, c, d = 0, 1, 1, box
    while c < d:
        farey.append((c, d))
        t = (box + b) // d
        a, b, c, d = c, d, t * c - a, t * d - b
    upright = farey + [(1, 1)] + [(q, p) for p, q in reversed(farey)]
    return (upright + [(1, 0)]
            + [(y, -x) for x, y in upright] + [(0, -1)]
            + [(-x, -y) for x, y in upright])


# (kmax, box) geometries a process keeps, the least recently used
# dropped first: a search meets one per kmax unless its box grows, and
# the pair for kmax = 20 holds about 4 MB of step tables
_PASSES_KEPT = 16


class _Pass:
    """The geometry of one search pass, which no domain enters.

    dirs are the steps the pass allows, in clockwise order, up to reach
    in each coordinate.  turn_end[i] is the first index after i whose
    direction lies more than 180 degrees clockwise of direction i; so
    does every later one, and turn_end[-1] = n leaves the first step
    free.  tables maps each vertex a walk has reached to its step
    table: the direction indices and the rows (index, dx, dy, fan) of
    the steps that can leave it, in clockwise order, built the first
    time any walk of this pass reaches the vertex.  Two walks that
    build the same table build equal ones, so either may keep its own.
    sup_index[i] is the index of dirs[i] among the directions of the
    box's full pass, which index the support table both passes share.
    """

    __slots__ = ("kmax", "box", "reach", "dirs", "turn_end", "tables",
                 "sup_index")

    def __init__(self, kmax: int, box: int, reach: int) -> None:
        self.kmax, self.box, self.reach = kmax, box, reach
        dirs = self.dirs = tuple(_clockwise_directions(reach))
        at = {d: i for i, d in enumerate(_clockwise_directions(box))}
        self.sup_index = tuple(at[d] for d in dirs)
        n = len(dirs)
        turn_end: list[int] = []
        j = 0
        for i, (pdx, pdy) in enumerate(dirs):
            j = max(j, i + 1)
            while j < n and pdx * dirs[j][1] - pdy * dirs[j][0] <= 0:
                j += 1
            turn_end.append(j)
        turn_end.append(n)
        self.turn_end = tuple(turn_end)
        self.tables: dict[tuple[int, int],
                          tuple[list[int], list[tuple[int, ...]]]] = {}

    def table(self, cx: int, cy: int,
              ) -> tuple[list[int], list[tuple[int, ...]]]:
        """The step table of (cx, cy), made and kept on first request."""
        box, fan_max = self.box, 4 * self.kmax
        rows = [(di, dx, dy, cx * dy - cy * dx)
                for di, (dx, dy) in enumerate(self.dirs)
                if 0 <= cx + dx <= box and 0 <= cy + dy <= box
                and -fan_max <= cx * dy - cy * dx <= fan_max]
        here = self.tables[cx, cy] = ([row[0] for row in rows], rows)
        return here


@lru_cache(maxsize=_PASSES_KEPT)
def _passes(kmax: int, box: int) -> tuple[_Pass, _Pass]:
    """The seeding pass, steps up to 3 in each coordinate, and the full
    pass of a search box, each built once and shared by every domain."""
    return _Pass(kmax, box, min(box, 3)), _Pass(kmax, box, box)


# best candidate per point-count slot: scaled integer value plus vertices
_Best = Optional[tuple[int, tuple[tuple[int, int], ...]]]


def _search(verts: list[tuple[int, int]], geo: _Pass, sup: list[int],
            initial: Optional[list[_Best]] = None) -> list[_Best]:
    """Branch-and-bound over clockwise paths in a box.

    Returns, per point count k = 0..kmax, the least functional value
    among paths whose closed region has k+1 lattice points, with a
    witness.  verts are the region's vertices scaled to integers, and
    values are scaled by the same factor.  geo is the pass: kmax, the
    box, and the allowed steps in clockwise order (the seeding pass
    allows only short ones).  sup is the support table of the box,
    indexed by its full pass's directions and shared by both passes:
    sup[geo.sup_index[i]] is the support of d = geo.dirs[i], the maximum
    over verts p of cross(d, p), which is what one step along d adds to
    the functional, or 0 until a walk of either pass first takes d and
    fills it in.  initial primes the incumbent table with known paths.

    Ties: the witness is the first least-value path the search meets,
    not the least (value, vertices) pair.  Paths are met start height
    by start height upwards, each walk trying directions clockwise and
    edge lengths shortest first, after the incumbents in initial.  A
    partial path is dropped once its value reaches (>=) the worst
    incumbent of every slot it can still land in, so a path that only
    ties an incumbent rarely gets as far as the comparison; when one
    does, the smaller vertex tuple wins.  The caps --oracle report
    prints these witnesses, so this order is part of the output.

    The whole walk runs on plain integers.  Each vertex p the walk
    visits has a table of the directions d whose first step stays in
    the box and whose fan |cross(p, d)| is at most 4 kmax, and the
    walk tries only those, from the one after its last direction up to
    the first that turns more than 180 degrees.  It enters every vertex
    with twice its area at most 2 kmax, so any other direction would
    fail its first step on the box or area check, before it could
    change the path or an incumbent; the walk meets the same paths in
    the same order as one trying every direction.  A table is geometry
    of (kmax, box) alone, so geo keeps it for every later call of the
    pass; the supports are the domain's and stay in sup, which belongs
    to this request.

    A partial path is pruned on a lower bound for its completed value,
    ell + y X, where (x, y) is its last vertex and X the region's
    x-intercept.  Three facts make this safe:

    - it is admissible: a completion ends at some (ex, 0) with ex >= 0,
      and the support h(d) = max over verts p of cross(d, p) is
      subadditive, so the rest of the path costs at least
      h((ex - x, -y)) >= cross((ex - x, -y), (X, 0)) = y X;
    - it is monotone along an edge: h(d) >= -dy X, so ell + y X never
      decreases as the edge grows, and each break still only drops
      longer edges that would be pruned as well;
    - it never prunes a path that would reach consider: the pruned
      prefix's bound already reaches suff[kmin], incumbents only fall
      and suff does not increase in its index, so every completion
      would fail the last pruned check before consider.

    consider therefore meets the same paths in the same order as with
    the bare functional, and values and witnesses do not change.

    A step to (nx, ny) that survives that check is also pruned on the
    lattice points its prefix already encloses.  Let y0 be the path's
    start height and c2 = |s2| + y0 + steps + m + gcd(nx, ny): twice the
    area plus the boundary points of the fan polygon O, (0, y0), the
    path so far, (nx, ny), each edge counted by its primitive steps.

    - The fan lies in every completion's region: a completed path and
      the two axis legs turn clockwise once round, so they bound a
      convex region (flat pieces walked twice allowed), and the fan's
      vertices are vertices of that cycle, taken in its order.
    - Pick's count: for such a cycle twice the area plus the boundary
      points is 2 (points - 1), which is how consider counts.  So a
      completion has at least c2 / 2 + 1 points and lands in a slot
      k >= c2 / 2.
    - Monotone along an edge: a longer edge's fan contains the shorter
      one's, so c2 does not decrease as the edge grows, and neither
      does ell + y X; a break drops only longer edges that would fail
      as well.
    - Ties: the step is dropped when c2 > 2 kmax, where every
      completion lands past kmax, or when ell + y X > suff[c2 // 2].
      The comparison is strict, so every completion's value would be
      above the incumbent of its slot, which only falls, and would fail
      cand < best[k] in consider without changing anything.  With >=, a
      completion that ties its slot's incumbent with a smaller vertex
      tuple could be dropped before it replaced the witness.

    The fan check runs after the functional check so that a step that
    check already drops costs no gcd.
    """
    kmax, box, dirs, sup_index = geo.kmax, geo.box, geo.dirs, geo.sup_index
    turn_end, tables, table_at = geo.turn_end, geo.tables, geo.table
    X = max(px for px, py in verts if py == 0)
    lim = 2 * kmax

    best: list[_Best] = ([None] * (kmax + 1) if initial is None
                          else list(initial))

    def support(di: int) -> int:
        dx, dy = dirs[di]
        s = sup[sup_index[di]] = max(dx * py - dy * px for px, py in verts)
        assert s > 0
        return s

    # suff[j] = worst incumbent over slots >= j, None while one is open;
    # a partial path with p points on it can only ever land in slots
    # >= p - 1, so reaching suff[p - 1] with its value already there
    # means no strict improvement can come out of it
    suff: list[Optional[int]] = [None] * (kmax + 2)
    dirty = [True]

    def pruned(value: int, kmin: int) -> bool:
        if kmin > kmax:
            return True
        if dirty[0]:
            run: Optional[int] = -1
            for j in range(kmax, -1, -1):
                b = best[j]
                if b is None or run is None:
                    run = None
                elif b[0] > run:
                    run = b[0]
                suff[j] = run
            dirty[0] = False
        bound = suff[kmin]
        return bound is not None and value >= bound

    def consider(path: list[tuple[int, int]], twice_area: int, ell: int,
                 steps: int) -> None:
        # boundary of the closed cycle: both axis legs plus the path
        # edges, whose primitive steps were counted with multiplicity
        boundary = path[0][1] + path[-1][0] + steps
        assert (twice_area + boundary) % 2 == 0
        k = (twice_area + boundary) // 2
        if k > kmax:
            return
        cand = (ell, tuple(path))
        if best[k] is None or cand < best[k]:
            best[k] = cand
            dirty[0] = True

    def walk(path: list[tuple[int, int]], onpath: set[tuple[int, int]],
             last_dir: int, signed2: int, ell: int, steps: int) -> None:
        cx, cy = path[-1]
        if cy == 0:
            consider(path, abs(signed2), ell, steps)
            # fall through: an axis run may still extend to the right
        base_kmin = len(onpath) - 1
        # the fan's boundary points on the y-axis leg and the path so far
        rim = path[0][1] + steps
        keys, table = tables.get((cx, cy)) or table_at(cx, cy)
        lo = bisect_right(keys, last_dir)
        hi = bisect_left(keys, turn_end[last_dir], lo)
        for di, ddx, ddy, fan in table[lo:hi]:
            step_ell = sup[sup_index[di]] or support(di)
            nx, ny = cx, cy
            m = 0
            added: list[tuple[int, int]] = []
            while True:
                m += 1
                nx += ddx
                ny += ddy
                if nx < 0 or ny < 0 or nx > box or ny > box:
                    break
                s2 = signed2 + fan * m
                if not -lim <= s2 <= lim:
                    break
                e = ell + step_ell * m
                low = e + ny * X
                if pruned(low, base_kmin):
                    break
                # pruned has brought suff up to date
                c2 = abs(s2) + rim + m + gcd(nx, ny)
                if c2 > lim:
                    break
                bound = suff[c2 // 2]
                if bound is not None and low > bound:
                    break
                # the path now runs through every point of this edge;
                # added remembers which of them were new to it
                if (nx, ny) not in onpath:
                    onpath.add((nx, ny))
                    added.append((nx, ny))
                if pruned(low, len(onpath) - 1):
                    break
                path.append((nx, ny))
                walk(path, onpath, di, s2, e, steps + m)
                path.pop()
            if added:
                onpath.difference_update(added)

    for y0 in range(kmax + 1):
        onpath = {(0, t) for t in range(y0 + 1)}
        walk([(0, y0)], onpath, -1, 0, 0, 0)
    return best


def oracle_convex_caps_upto(domain: ToricDomain, kmax: int,
                            ) -> list[tuple[Fraction, LatticePath]]:
    """Capacity values c_0..c_kmax by exhaustive path search, with witnesses.

    Minimises the path functional over every admissible path with the
    right point count.  A restricted-direction pass seeds the incumbent
    table so the full pass can prune from the start.  The search box
    grows if an optimum ever touches it, which for sane inputs it does
    not.
    """
    if domain.kind != "convex":
        raise DomainError("the path oracle works on convex domains")
    if kmax < 0:
        raise DomainError("kmax must be nonnegative")
    # the region polygon over the domain's denominator
    den, verts = domain.D, [(0, 0), *domain.ints]
    box = 2 * (kmax + 1)
    best: Optional[list[_Best]] = None
    for _ in range(3):
        seed, full = _passes(kmax, box)
        sup = [0] * len(full.dirs)
        best = _search(verts, seed, sup, initial=best)
        if any(b is None for b in best):
            raise LimitError("path search box too small to close any path")
        best = _search(verts, full, sup, initial=best)
        hits = any(x == box or y == box
                   for b in best for x, y in b[1])  # type: ignore[index]
        if not hits:
            return [(Fraction(value, den), LatticePath("convex", path))
                    for value, path in best]  # type: ignore[misc]
        box *= 2
    raise LimitError("optimal paths keep touching the search box")


def oracle_convex_cap(domain: ToricDomain, k: int,
                      ) -> tuple[Fraction, LatticePath]:
    return oracle_convex_caps_upto(domain, k)[k]
