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
in two.  The geometry of a search depends only on (kmax, box): its
clockwise step directions, how far each may turn, the step table of
each vertex, and a memo of the path prefixes walks have reached, with
the steps that leave each inside the box and the area and point count
bounds.  A process builds it once per (kmax, box) for both passes, a
prefix when a walk first reaches it, bounded by _NODES_KEPT prefixes a
pass, and shares it with every domain (_passes).  The region's vertices
and the support of a direction, an integer cross product maximum,
belong to one request: the seeding pass and the full pass of a box
share one support table, indexed by the full pass's directions, and a
support is computed the first time either walk takes its direction.
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
from threading import Lock
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

# prefix nodes one pass keeps, under 0.5 KB each: making one more drops
# the pass's memo, which walks then build again as they go
_NODES_KEPT = 1 << 15

# the bound of a slot that is still open
_OPEN = float("inf")

# A node of a pass's memo is a path prefix, as the tuple (ny, half,
# kmin, path, slot, s2, rim, rows, runs) of geometry alone.  The first
# three are its entry: end height, c2 // 2 (see _search) and lattice
# points less one; a bare entry is a prefix no walk has entered.  slot
# is the point-count slot of a path that stops there, or None, s2 twice
# the signed area of its fan and rim the fan's boundary points on the
# leg and the path.  runs[i] holds the entries one edge along rows[i]
# longer, by length from 1: the first alone until a walk passes its
# checks, then a list of them, with None at the end until a geometric
# break.  Most runs are never passed, and keep no list.
_Node = tuple


def _returns(path: tuple[tuple[int, int], ...], dx: int, dy: int,
             x: int, y: int) -> bool:
    """Whether (x, y), reached along (dx, dy) from the end of path, is
    already on path or on its y-axis leg.

    Off the leg, (x, y) is on path only if (dx, dy) is at least 180
    degrees clockwise of the first edge d_1, cross(d_1, d) >= 0: were
    it on edge j, that edge from there, the edges after it and the new
    one would close up, a vanishing positive combination of directions
    turning clockwise from d_j to d, which no sector of less than 180
    degrees holds.
    """
    if x == 0 and y <= path[0][1]:
        return True
    if len(path) < 2 or path[1][0] * dy < (path[1][1] - path[0][1]) * dx:
        return False
    return any((qx - px) * (y - py) == (qy - py) * (x - px)
               and (x - px) * (x - qx) + (y - py) * (y - qy) <= 0
               for (px, py), (qx, qy) in zip(path, path[1:]))


class _Pass:
    """The geometry of one search pass, which no domain enters.

    dirs are the steps the pass allows, in clockwise order, up to reach
    in each coordinate.  turn_end[i] is the first index after i whose
    direction lies more than 180 degrees clockwise of direction i; so
    does every later one, and turn_end[-1] = n leaves the first step
    free.  tables maps each vertex a prefix has ended on to its step
    table: the direction indices and the rows (index, dx, dy, fan) of
    the steps that can leave it, in clockwise order.  roots are the
    prefixes (0, y0), y0 = 0..kmax, of the memo, and size counts the
    nodes made since it was last dropped.  Walks grow the memo in place,
    so a search holds its lock while it walks.  sup_index[i] is the index of
    dirs[i] among the directions of the box's full pass, which index
    the support table both passes share.
    """

    __slots__ = ("kmax", "box", "reach", "dirs", "turn_end", "tables",
                 "sup_index", "roots", "size", "lock")

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
        self.lock = Lock()
        self.drop()

    def drop(self) -> None:
        """Start the memo again from its roots."""
        self.size = 0
        self.roots = [self.node((y0, 0, y0), ((0, y0),), -1, 0, y0)
                      for y0 in range(self.kmax + 1)]

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

    def node(self, entry: tuple[int, ...], path: tuple[tuple[int, int], ...],
             last: int, s2: int, rim: int) -> _Node:
        """The node of entry, whose path's last edge runs along
        dirs[last], with the first entry of each of its runs."""
        if self.size >= _NODES_KEPT:
            self.drop()
        self.size += 1
        cx, cy = path[-1]
        lim = 2 * self.kmax
        # on the x-axis: twice the area plus the boundary, both axis legs
        # and the path edges counted by their primitive steps
        twice = abs(s2) + rim + cx
        assert cy or twice % 2 == 0
        slot = twice // 2 if cy == 0 and twice <= lim else None
        keys, table = self.tables.get((cx, cy)) or self.table(cx, cy)
        lo = bisect_right(keys, last)
        hi = bisect_left(keys, self.turn_end[last], lo)
        rows, runs = [], []
        for row in table[lo:hi]:
            # grow's area check, which a third of the rows fail, first
            if -lim <= s2 + row[3] <= lim:
                first = self.grow(path, s2, rim, entry[2], row, 1)
                if first:
                    rows.append(row)
                    runs.append(first)
        # a node without runs holds nothing the garbage collector traces
        return entry + (path, slot, s2, rim, tuple(rows), runs or ())

    def grow(self, path: tuple[tuple[int, int], ...], s2: int, rim: int,
             kmin: int, row: tuple[int, ...], m: int,
             ) -> Optional[tuple[int, ...]]:
        """The entry m steps along row from the prefix path, or None
        where the run breaks; kmin is that of m - 1 steps, and of the
        edge's points only its end can be on path already."""
        _, dx, dy, fan = row
        cx, cy = path[-1]
        x, y = cx + m * dx, cy + m * dy
        s2 += fan * m
        box, lim = self.box, 2 * self.kmax
        if 0 <= x <= box and 0 <= y <= box and -lim <= s2 <= lim:
            kmin += not _returns(path, dx, dy, x, y)
            c2 = abs(s2) + rim + m + gcd(x, y)
            if kmin <= self.kmax and c2 <= lim:
                return (y, c2 // 2, kmin)
        return None


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
    box, the allowed steps in clockwise order (the seeding pass allows
    only short ones) and its memo of prefixes.  sup is the support
    table of the box, indexed by its full pass's directions and shared
    by both passes: sup[geo.sup_index[i]] is the support of
    d = geo.dirs[i], the maximum over verts p of cross(d, p), which is
    what one step along d adds to the functional, or 0 until a walk of
    either pass first takes d and fills it in.  initial primes the
    incumbent table with known paths.

    Ties: the witness is the first least-value path the search meets,
    not the least (value, vertices) pair.  Paths are met start height
    by start height upwards, each walk trying directions clockwise and
    edge lengths shortest first, after the incumbents in initial.  A
    partial path is dropped once its value reaches (>=) the worst
    incumbent of every slot it can still land in, so a path that only
    ties an incumbent rarely gets as far as the comparison; when one
    does, the smaller vertex tuple wins.  The caps --oracle report
    prints these witnesses, so this order is part of the output.

    The walk runs on plain integers, and on geo's memo for all that no
    domain enters.  A vertex p tries only the directions d of its step
    table, whose first step stays in the box and whose fan
    |cross(p, d)| is at most 4 kmax, from the one after its last
    direction up to the first that turns more than 180 degrees; the
    walk enters p with twice its area at most 2 kmax, so any other d
    would fail its first step on the box or area check.  A node's run
    along d holds the edge lengths m up to the first that fails the
    box, the area, c2 <= 2 kmax or kmin <= kmax below, each with its
    height ny, c2 // 2 and kmin.  The walk adds the domain's
    e = ell + sup(d) m and low = e + ny X, and breaks at the run's end,
    at low > suff[c2 // 2] or at low >= suff[kmin]: where a walk that
    computes each step breaks, as that walk's check on the prefix's
    own kmin is implied by the last (kmin grows along a path, suff does
    not increase in its index).  Entries and nodes are made when a walk
    first reaches them; the supports stay in sup, this request's.  A
    prefix with a slot is considered: its (value, path) replaces the
    slot's incumbent if it is smaller.

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
      would be pruned on its own kmin before consider.

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
    """
    kmax, dirs, sup_index = geo.kmax, geo.dirs, geo.sup_index
    X = max(px for px, py in verts if py == 0)

    best: list[_Best] = ([None] * (kmax + 1) if initial is None
                          else list(initial))

    def support(di: int) -> int:
        dx, dy = dirs[di]
        s = sup[sup_index[di]] = max([dx * py - dy * px
                                      for px, py in verts])
        assert s > 0
        return s

    # suff[j] = worst incumbent over slots >= j, _OPEN while one is
    # open, and suff[kmax + 1] = -1; a partial path with p points on it
    # can only ever land in slots >= p - 1, so reaching suff[p - 1] with
    # its value already there means no strict improvement can come out
    # of it
    suff: list[float] = [_OPEN] * (kmax + 1) + [-1]

    def settle(top: int) -> None:
        """Bring suff up to date after slot top changed."""
        run = suff[top + 1]
        for j in range(top, -1, -1):
            b = best[j]
            run = suff[j] = _OPEN if b is None else max(run, b[0])

    settle(kmax)

    def walk(node: _Node, ell: int) -> None:
        _, _, _, path, slot, s2, rim, rows, runs = node
        if slot is not None:
            cand = (ell, path)
            b = best[slot]
            if b is None or cand < b:
                best[slot] = cand
                settle(slot)
            # fall through: an axis run may still extend to the right
        for i, entries in enumerate(runs):
            row = rows[i]
            di = row[0]
            step_ell = sup[sup_index[di]] or support(di)
            if entries.__class__ is tuple:  # the run's first entry alone
                low = ell + step_ell + entries[0] * X
                if low > suff[entries[1]] or low >= suff[entries[2]]:
                    continue
                entries = runs[i] = [entries, None]
            m = 0
            # entries grows while the loop runs, up to a geometric break
            for entry in entries:
                m += 1
                if entry is None:
                    entry = entries[-1] = geo.grow(path, s2, rim,
                                                   entries[-2][2], row, m)
                    if entry is None:
                        entries.pop()
                        break
                    entries.append(None)
                e = ell + step_ell * m
                low = e + entry[0] * X
                if low > suff[entry[1]] or low >= suff[entry[2]]:
                    break
                if len(entry) == 3:  # a prefix no walk has entered yet
                    _, dx, dy, fan = row
                    cx, cy = path[-1]
                    entry = entries[m - 1] = geo.node(
                        entry, path + ((cx + m * dx, cy + m * dy),), di,
                        s2 + fan * m, rim + m)
                walk(entry, e)

    with geo.lock:
        for y0 in range(kmax + 1):
            walk(geo.roots[y0], 0)
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
