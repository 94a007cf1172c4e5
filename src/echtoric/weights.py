"""Weight expansions of toric domains via repeated corner cuts.

A concave domain is peeled by the triangle it shares with the corner:
the cut level is the minimum of x + y over boundary vertices, attained
at one vertex or one edge of slope -1.  The parts left and right of the
cut are normalised back into standard position by integral shears and
peeled again, which terminates for rational data.  The multiset of cut
levels is the weight sequence.

A convex domain is handled dually: the head weight is the maximum of
x + y, the two boundary pieces beyond the cut line are folded into
standard concave position (this reverses their orientation) and their
weight sequences are recorded with the head.

The cuts run on integers, in one kernel, _rows.  Both shears
(x, y) -> (x, x + y - a) and (x, y) -> (x + y - a, y) are unimodular
with integer translations, so after one common denominator D is
cleared from the boundary every piece, cut level and map stays
integral.  A convex boundary is scaled by D before the fold: its head
level is a vertex, so the flanks stay integral too.  The kernel puts
out one row per cut, its level, its integer map back to the input and
its children, in preorder.

A piece with two vertices, [(0, q), (p, 0)], is the triangle E(p, q),
and its rows are written in closed form by _euclid.  For p >= q they
are a right chain of p // q cuts at level q, where cut i has map
(ma, mb - i ma, mc, md - i mc, tx + i ma q, ty + i mc q) for the
piece's map (ma, mb, mc, md, tx, ty); for p < q a left chain of q // p
cuts at level p with map (ma - i mb, mb, mc - i md, md, tx + i mb p,
ty + i md p).  The remainder of the division carries on, as in
Euclid's algorithm.  A whole chain is charged to the node budget at
once, which raises exactly when charging its cuts one by one would.

The rows are the only decomposition form.  concave_weights and
convex_weights return the levels, sorted as integers over D, as the
WeightExpansion and the rows themselves, with D, as a Decomposition
(a ConvexDecomposition adds the head as the integer top): the
embedding decision and the capacities read the levels, the drawings
the integer maps and the head, and the sphere chains and the boundary
approximations walk the rows' child indices.  Nothing is divided by D
again unless a caller reads a Fraction view.

The cut and the fold are written once, on integer chains and integer
levels: _shear_cut gives the sheared pieces beyond a level with their
maps back, _fold the folded flanks of a convex chain, and both find
where the level meets the boundary with _clip.  Their docstrings prove
that what they give are valid concave chains.  A level inside an edge
meets it at a point with a new denominator k, the edge's; _clip then
returns the prefix times k with k, and the pieces and maps come back
over k times the input's denominator.  The weight recursion cuts at a
vertex and folds at the head, which is a vertex too, so its k is
always 1.  The boundary approximations in blowups cut at raised levels
and lower heads with them, and latticepaths splits convex paths with
_fold.  The boundary over D is the domain's own (D, ints); nothing
here clears it again.

Sum rules tie the output to area: for a concave domain the squares of
the weights add up to twice the area, for a convex one the head square
minus the weight squares does.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterator, Optional, Sequence

from .domains import ToricDomain
from .errors import DomainError, LimitError
from .geometry import RationalLike, ratio

DEFAULT_MAX_NODES = 10_000


@dataclass(frozen=True)
class WeightExpansion:
    """Head and weights times the common denominator D: top is None for
    a concave domain, sizes a nonincreasing tuple.  head and weights are
    their Fraction views, built when first read."""

    D: int
    top: Optional[int]
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.D <= 0 or self.top is not None and self.top <= 0:
            raise DomainError("denominator and head must be positive")
        # nonincreasing down to a last size of at least 1
        if not all(map(operator.ge, self.sizes, self.sizes[1:] + (1,))):
            raise DomainError("weights must be positive and nonincreasing")

    @cached_property
    def head(self) -> Optional[Fraction]:
        return None if self.top is None else Fraction(self.top, self.D)

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        frac = _fractions(self.D, self.sizes)
        return tuple(map(frac.__getitem__, self.sizes))


@dataclass(frozen=True)
class Decomposition:
    """The cuts of one concave piece, as the kernel's integer rows.

    Each row is [level, map, left, right] in preorder, as _rows puts
    it out: the cut level and the translation (tx, ty) of the map
    p -> (a p.x + b p.y + tx, c p.x + d p.y + ty) back to the input
    coordinates are integers over the common denominator D, the linear
    part is unimodular, and left and right are row indices or None.
    domain is the concave domain peeled, and None for the side pieces
    of a convex domain, which exist only inside the kernel.
    """

    D: int
    rows: list
    domain: Optional[ToricDomain]


@dataclass(frozen=True)
class ConvexDecomposition:
    """Head cut of a convex domain, top over the domain's D as the side
    rows are, plus the peeled side pieces; head is top's Fraction view."""

    top: int
    domain: ToricDomain
    left: Optional[Decomposition]
    right: Optional[Decomposition]

    @cached_property
    def head(self) -> Fraction:
        return Fraction(self.top, self.domain.D)


def _clip(bd: Sequence[tuple[int, int]], lam: int) -> tuple[list, int]:
    """Boundary prefix ending where x + y first reaches lam, and its scale.

    bd is an integer chain and lam an integer level; x + y starts off
    lam at bd[0] and moves towards it.  When a vertex sits on the level
    the prefix ends there, with scale 1.  Otherwise the level meets the
    edge from p to q, with sums sp and sq, at p + (q - p) u/k for
    u = sp - lam and k = sp - sq, both signs flipped if k < 0: the prefix
    comes back times k, so that this last point k p + (q - p) u is an
    integer pair too, and the scale is k.  Suffixes come from clipping
    the reversed boundary.
    """
    below = sum(bd[0]) > lam
    for t, (x, y) in enumerate(bd):
        s = x + y
        if s == lam:
            return bd[:t + 1], 1
        if (s < lam) == below:
            px, py = bd[t - 1]
            u, k = px + py - lam, px + py - s
            if k < 0:
                u, k = -u, -k
            return ([(a * k, b * k) for a, b in bd[:t]]
                    + [(px * k + (x - px) * u, py * k + (y - py) * u)], k)
    raise DomainError("cut level never reached along the boundary")


def _shear_cut(bd: Sequence[tuple[int, int]], lam: int, m: tuple) -> tuple:
    """The concave pieces of bd beyond the cut x + y = lam.

    bd is an integer chain and lam and the translation of m are integers
    over the same denominator.  Each side is (piece, map, k): the piece
    sheared into standard position, by (x, y) -> (x, x + y - lam) on the
    left and (x + y - lam, y) on the right, and the 6-tuple
    (a, b, c, d, tx, ty) of the map p -> (a p.x + b p.y + tx,
    c p.x + d p.y + ty) taking it back through m, both times the scale k
    that _clip gave that side: the piece and the map's translation are
    over k times the denominator of bd.  A side whose end does not rise
    above lam gives None.  Cut at its minimum of x + y, as the weight
    recursion cuts, the level sits on a vertex and k is 1.

    A valid concave chain cut at any level from its minimum of x + y up
    gives valid concave pieces, so they are not checked again.  Its
    slopes dy/dx strictly increase, so x + y strictly falls along the
    edges of slope below -1, stays level along at most one edge of
    slope -1 and strictly rises after it.  The left piece therefore
    runs from bd[0], above lam, along falling edges to where x + y
    first reaches lam; (x, y) -> (x, x + y - lam) takes it from the
    positive y-axis to the positive x-axis and an edge of slope s to
    one of slope 1 + s < 0, which keeps the slopes strictly
    increasing.  The right piece mirrors it along rising edges, where
    s/(1 + s) < 0 increases with s.
    """
    ma, mb, mc, md, tx, ty = m
    left = right = None
    if sum(bd[0]) > lam:
        part, k = _clip(bd, lam)
        level = lam * k
        # back through (x, y) -> (x, y - x + lam), then m
        left = ([(x, x + y - level) for x, y in part],
                (ma - mb, mb, mc - md, md, (tx + mb * lam) * k,
                 (ty + md * lam) * k), k)
    if sum(bd[-1]) > lam:
        part, k = _clip(bd[::-1], lam)
        level = lam * k
        # back through (x, y) -> (x - y + lam, y), then m
        right = ([(x + y - level, y) for x, y in reversed(part)],
                 (ma, mb - ma, mc, md - mc, (tx + ma * lam) * k,
                  (ty + mc * lam) * k), k)
    return left, right


def _fold(bd: Sequence[tuple[int, int]], lam: int) -> tuple:
    """A convex chain's two flanks beyond x + y = lam, in concave position.

    bd is an integer chain and lam an integer level.  The left flank
    goes through (x, y) -> (lam - x - y, x), the right through
    (x, y) -> (y, lam - x - y); folding reverses the orientation of
    each.  Each side is (flank, k), the flank times the scale k that
    _clip gave it, and k is 1 at a level on a vertex, such as the head.
    A flank whose end does not sink below lam gives None.

    A valid convex chain folded from its head down gives valid concave
    flanks, which are not checked again.  Its edges point up-right to
    down-left and turn strictly clockwise, so x + y strictly rises,
    stays level along at most one edge, then strictly falls; a rising
    edge (dx, dy) has dx > 0 and a falling one dy < 0.  The left flank
    is a prefix of the rising run, the right one a suffix of the falling
    run.  Read backwards through a fold of determinant 1, each turns
    strictly counterclockwise, its edges (dx + dy, -dx) or
    (-dy, dx + dy) point strictly down-right, and its ends land on the
    positive axes.
    """
    left = right = None
    if sum(bd[0]) < lam:
        part, k = _clip(bd, lam)
        level = lam * k
        left = [(level - x - y, x) for x, y in reversed(part)], k
    if sum(bd[-1]) < lam:
        part, k = _clip(bd[::-1], lam)
        level = lam * k
        right = [(y, level - x - y) for x, y in part], k
    return left, right


class _Budget:
    def __init__(self, limit: int) -> None:
        self.left = limit
        self.limit = limit

    def charge(self, nodes: int = 1) -> None:
        """Take nodes slots at once; raises exactly when as many single
        slots taken one after the other would."""
        if nodes > self.left:
            raise LimitError(
                f"decomposition exceeded the {self.limit} node limit")
        self.left -= nodes


_IDENTITY = (1, 0, 0, 1, 0, 0)


def _euclid(p: int, q: int, m: tuple, rows: list, budget: _Budget) -> None:
    """Append the rows of the triangle [(0, q), (p, 0)] in closed form.

    For p >= q the cut at q leaves only the right piece, the triangle
    with p - q in place of p, so p // q nodes of level q form a right
    chain; node i of it has map
    (ma, mb - i ma, mc, md - i mc, tx + i ma q, ty + i mc q).  For p < q
    the left chain of q // p nodes of level p mirrors it, with map
    (ma - i mb, mb, mc - i md, md, tx + i mb p, ty + i md p).  The map
    after the chain carries on with the remainder, as in Euclid's
    algorithm.  These are the rows _shear_cut would give one node at a
    time.
    """
    ma, mb, mc, md, tx, ty = m
    while True:
        n = len(rows)
        if p >= q:
            k, p = divmod(p, q)
            budget.charge(k)
            rows += [[q, (ma, mb - i * ma, mc, md - i * mc,
                          tx + i * ma * q, ty + i * mc * q), None, n + i + 1]
                     for i in range(k)]
            mb, md = mb - k * ma, md - k * mc
            tx, ty = tx + k * ma * q, ty + k * mc * q
            if p == 0:
                rows[-1][3] = None
                return
        else:
            k, q = divmod(q, p)
            budget.charge(k)
            rows += [[p, (ma - i * mb, mb, mc - i * md, md,
                          tx + i * mb * p, ty + i * md * p), n + i + 1, None]
                     for i in range(k)]
            ma, mc = ma - k * mb, mc - k * md
            tx, ty = tx + k * mb * p, ty + k * md * p
            if q == 0:
                rows[-1][2] = None
                return


def _rows(pts: list[tuple[int, int]], m: tuple,
          budget: _Budget) -> list[list]:
    """The cut kernel: every cut of an integer concave chain, as rows.

    A row is [level, map, left, right]: the cut level, the integer map
    6-tuple back to the input (as in _shear_cut) and the row indices of
    the children, or None.  Rows come in preorder, so children follow
    their parent.  An explicit stack keeps very unbalanced trees off the
    interpreter stack, and triangle pieces are expanded by _euclid.
    """
    rows: list[list] = []
    work: list[tuple] = [(pts, m, None, 0)]
    while work:
        pts, m, parent, slot = work.pop()
        if parent is not None:
            parent[slot] = len(rows)
        if len(pts) == 2:
            _euclid(pts[1][0], pts[0][1], m, rows, budget)
            continue
        budget.charge()
        a = min(x + y for x, y in pts)
        # cut at a vertex, so both sides come back at scale 1
        left, right = _shear_cut(pts, a, m)
        row = [a, m, None, None]
        rows.append(row)
        if right is not None:
            work.append((*right[:2], row, 3))
        if left is not None:
            work.append((*left[:2], row, 2))
    return rows


def _convex_rows(domain: ToricDomain,
                 max_nodes: int) -> tuple[int, int, list]:
    """D, the head times D and per flank None or its rows.

    The head level is a vertex of the boundary, so folding the boundary
    times D, as the domain keeps it, interpolates nothing and the flanks
    stay integral, and valid (see _fold).
    """
    if domain.kind != "convex":
        raise DomainError("convex_weights needs a convex domain")
    D, pts = domain.D, domain.ints
    b = max(x + y for x, y in pts)
    budget = _Budget(max_nodes)
    budget.charge()  # the head takes one slot
    # (x, y) -> (y, b - x - y) undoes the left fold, (x, y) ->
    # (b - x - y, x) the right one
    backs = ((0, 1, -1, -1, 0, b), (-1, -1, 1, 0, b, 0))
    sides = [None if flank is None else _rows(flank[0], back, budget)
             for flank, back in zip(_fold(pts, b), backs)]
    return D, b, sides


def _fractions(D: int, numerators) -> dict[int, Fraction]:
    # levels and coordinates repeat across rows, so build each Fraction
    # once
    return {n: Fraction(n, D) for n in set(numerators)}


def _levels(*row_lists: list[list]) -> tuple[int, ...]:
    return tuple(sorted((row[0] for rows in row_lists for row in rows),
                        reverse=True))


def inorder(dec: Optional[Decomposition]) -> Iterator[int]:
    """Row indices of left subtree, node, right subtree; iterative."""
    if dec is None:
        return
    rows = dec.rows
    stack: list[int] = []
    cur: Optional[int] = 0
    while stack or cur is not None:
        while cur is not None:
            stack.append(cur)
            cur = rows[cur][2]
        cur = stack.pop()
        yield cur
        cur = rows[cur][3]


def node_count(dec: Optional[Decomposition]) -> int:
    return 0 if dec is None else len(dec.rows)


def tree_values(dec: Optional[Decomposition]) -> tuple[Fraction, ...]:
    """Cut levels in in-order, which is left-to-right along the boundary."""
    if dec is None:
        return ()
    rows = dec.rows
    frac = _fractions(dec.D, (row[0] for row in rows))
    return tuple(frac[rows[i][0]] for i in inorder(dec))


def concave_weights(domain: ToricDomain,
                    max_nodes: int = DEFAULT_MAX_NODES,
                    ) -> tuple[WeightExpansion, Decomposition]:
    """The weight expansion and the rows it came from."""
    if domain.kind != "concave":
        raise DomainError("concave_weights needs a concave domain")
    D = domain.D
    rows = _rows(domain.ints, _IDENTITY, _Budget(max_nodes))
    return (WeightExpansion(D, None, _levels(rows)),
            Decomposition(D, rows, domain))


def convex_weights(domain: ToricDomain,
                   max_nodes: int = DEFAULT_MAX_NODES,
                   ) -> tuple[WeightExpansion, ConvexDecomposition]:
    """The weight expansion and the head cut with its side rows."""
    D, b, sides = _convex_rows(domain, max_nodes)
    left, right = (None if side is None else Decomposition(D, side, None)
                   for side in sides)
    exp = WeightExpansion(D, b, _levels(*(s for s in sides if s)))
    return exp, ConvexDecomposition(b, domain, left, right)


def build_short_concave(values: Sequence[RationalLike]) -> ToricDomain:
    """Concave domain whose weight expansion is the given multiset.

    The values must be positive and nonincreasing.  The construction
    stacks the triangles along the x-axis: the largest sits at the
    corner and each later one is sheared onto the free boundary edge.
    Peeling the result recovers exactly the input values.
    """
    parts = [ratio(v) for v in values]
    if not parts:
        raise DomainError("need at least one weight")
    D = lcm(*(q for _, q in parts))
    vals = [p * (D // q) for p, q in parts]  # the values times D
    if any(v <= 0 for v in vals):
        raise DomainError("weights must be positive")
    if any(v2 > v1 for v1, v2 in zip(vals, vals[1:])):
        raise DomainError("weights must be nonincreasing")
    # built back to front; the shear (x, y) -> (x - y + a, y) plants the
    # already built domain onto the slope -1 edge of the triangle of
    # size a
    boundary = [(0, vals[-1]), (vals[-1], 0)]
    for a in reversed(vals[:-1]):
        boundary = [(0, a)] + [(x - y + a, y) for x, y in boundary]
    return ToricDomain("concave", D, tuple(boundary))
