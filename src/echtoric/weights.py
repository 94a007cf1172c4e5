"""Weight expansions of toric domains via repeated corner cuts.

A concave domain is peeled by the triangle it shares with the corner:
the cut level is the minimum of x + y over boundary vertices, attained
at one vertex or one edge of slope -1.  The parts left and right of the
cut are normalised back into standard position by integral shears and
peeled again, which terminates for rational data.  The multiset of cut
levels is the weight sequence; the recursion tree remembers enough to
rebuild every triangle: each node keeps its cut level and the
accumulated map back to the input coordinates, and the root also keeps
the domain it peeled.

The cuts run on integers.  Both shears (x, y) -> (x, x + y - a) and
(x, y) -> (x + y - a, y) are unimodular with integer translations, so
after one common denominator D is cleared from the root boundary and
the root map, every piece, cut level and map stays integral; only the
finished nodes divide by D again.

A convex domain is handled dually: the head weight is the maximum of
x + y, the two boundary pieces beyond the cut line are folded into
standard concave position (this reverses their orientation) and their
weight sequences are recorded with the head.

The cut and the fold are written once, on (x, y) pairs of ints or
Fractions: _shear_cut gives the sheared pieces beyond a level with
their maps back, _fold the folded flanks of a convex chain, and both
find where the level meets the boundary with _clip.  The boundary
approximations in blowups cut at raised levels and lower heads with
them, and latticepaths splits convex paths with _fold.

Sum rules tie the output to area: for a concave domain the squares of
the weights add up to twice the area, for a convex one the head square
minus the weight squares does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Optional, Sequence

from .domains import ToricDomain
from .errors import DomainError, LimitError
from .geometry import AffineUnimodularMap, Point, RationalLike, rational

DEFAULT_MAX_NODES = 10_000


@dataclass(frozen=True)
class WeightExpansion:
    """Weights sorted in nonincreasing order; head is None for concave input."""

    head: Optional[Fraction]
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        ws = tuple(sorted((rational(w) for w in self.weights), reverse=True))
        if any(w <= 0 for w in ws):
            raise DomainError("weights must be positive")
        head = None if self.head is None else rational(self.head)
        if head is not None and head <= 0:
            raise DomainError("head weight must be positive")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "head", head)

    def weight_squares(self) -> Fraction:
        return sum((w * w for w in self.weights), Fraction(0))


@dataclass(frozen=True)
class DecompositionNode:
    """One corner cut of a concave domain.

    value is the cut level in the normalised coordinates of the piece
    this node peeled.  to_original maps those coordinates back to the
    coordinates of the domain the recursion started from.  domain is
    that piece as a ToricDomain at the root of a tree and None below
    it, where the pieces exist only inside the integer cut kernel.
    """

    value: Fraction
    domain: Optional[ToricDomain]
    to_original: AffineUnimodularMap
    left: Optional["DecompositionNode"]
    right: Optional["DecompositionNode"]


@dataclass(frozen=True)
class ConvexDecomposition:
    """Head cut of a convex domain plus the peeled side pieces."""

    head: Fraction
    domain: ToricDomain
    left: Optional[DecompositionNode]
    right: Optional[DecompositionNode]


def _clip(bd: list[tuple], lam) -> list[tuple]:
    """Boundary prefix ending where x + y first reaches lam.

    x + y starts off lam at bd[0] and moves towards it; the last vertex
    is interpolated exactly, in Fractions, inside an edge when no vertex
    sits on the level.  Suffixes come from clipping the reversed
    boundary.
    """
    below = sum(bd[0]) > lam
    for t, (x, y) in enumerate(bd):
        s = x + y
        if s == lam:
            return bd[:t + 1]
        if (s < lam) == below:
            px, py = bd[t - 1]
            theta = Fraction(px + py - lam, px + py - s)
            return bd[:t] + [(px + (x - px) * theta, py + (y - py) * theta)]
    raise DomainError("cut level never reached along the boundary")


def _shear_cut(bd: list[tuple], lam, m: tuple) -> tuple:
    """The concave pieces of bd beyond the cut x + y = lam.

    Each side is (piece, map): the piece sheared into standard position,
    by (x, y) -> (x, x + y - lam) on the left and (x + y - lam, y) on
    the right, and the 6-tuple (a, b, c, d, tx, ty) of the map
    p -> (a p.x + b p.y + tx, c p.x + d p.y + ty) taking it back through
    m.  A side whose end does not rise above lam gives None.  Integer
    input cut at its minimum of x + y stays integer, since no vertex is
    interpolated there.

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
        piece = [(x, x + y - lam) for x, y in _clip(bd, lam)]
        # back through (x, y) -> (x, y - x + lam), then m
        left = piece, (ma - mb, mb, mc - md, md, tx + mb * lam, ty + md * lam)
    if sum(bd[-1]) > lam:
        piece = [(x + y - lam, y) for x, y in reversed(_clip(bd[::-1], lam))]
        # back through (x, y) -> (x - y + lam, y), then m
        right = piece, (ma, mb - ma, mc, md - mc, tx + ma * lam, ty + mc * lam)
    return left, right


def _fold(bd: list[tuple], lam) -> tuple:
    """A convex chain's two flanks beyond x + y = lam, in concave position.

    The left flank goes through (x, y) -> (lam - x - y, x), the right
    through (x, y) -> (y, lam - x - y); folding reverses the orientation
    of each.  A flank whose end does not sink below lam gives None.
    """
    left = right = None
    if sum(bd[0]) < lam:
        left = [(lam - x - y, x) for x, y in reversed(_clip(bd, lam))]
    if sum(bd[-1]) < lam:
        right = [(y, lam - x - y) for x, y in _clip(bd[::-1], lam)]
    return left, right


class _Budget:
    def __init__(self, limit: int) -> None:
        self.left = limit
        self.limit = limit

    def tick(self) -> None:
        if self.left <= 0:
            raise LimitError(
                f"decomposition exceeded the {self.limit} node limit")
        self.left -= 1


def _concave_tree(domain: ToricDomain, to_original: AffineUnimodularMap,
                  budget: _Budget) -> DecompositionNode:
    m, bd = to_original, domain.boundary
    D = lcm(m.t.x.denominator, m.t.y.denominator,
            *(p.x.denominator for p in bd), *(p.y.denominator for p in bd))

    def scaled(v: Fraction) -> int:
        return v.numerator * (D // v.denominator)

    root_pts = [(scaled(p.x), scaled(p.y)) for p in bd]
    root_map = (m.a, m.b, m.c, m.d, scaled(m.t.x), scaled(m.t.y))
    # nodes in preorder as (a, map, left, right), children as indices; an
    # explicit stack keeps very unbalanced trees (long Euclid runs) off
    # the interpreter stack
    rows: list[list] = []
    work = [(root_pts, root_map, -1, 2)]
    while work:
        pts, mp, parent, slot = work.pop()
        budget.tick()
        idx = len(rows)
        if parent >= 0:
            rows[parent][slot] = idx
        a = min(x + y for x, y in pts)
        left, right = _shear_cut(pts, a, mp)
        if left is not None:
            work.append((*left, idx, 2))
        if right is not None:
            work.append((*right, idx, 3))
        rows.append([a, mp, None, None])

    # levels and coordinates repeat across nodes, so build each
    # Fraction once
    numerators: set[int] = set()
    for a, (_, _, _, _, tx, ty), _, _ in rows:
        numerators.update((a, tx, ty))
    frac = {n: Fraction(n, D) for n in numerators}
    nodes: list[Optional[DecompositionNode]] = [None] * len(rows)
    for idx in range(len(rows) - 1, -1, -1):
        a, (ma, mb, mc, md, tx, ty), left, right = rows[idx]
        nodes[idx] = DecompositionNode(
            value=frac[a],
            domain=domain if idx == 0 else None,
            to_original=AffineUnimodularMap(ma, mb, mc, md,
                                            Point(frac[tx], frac[ty])),
            left=None if left is None else nodes[left],
            right=None if right is None else nodes[right],
        )
    root = nodes[0]
    assert root is not None
    return root


def inorder(node: Optional[DecompositionNode]) -> Iterator[DecompositionNode]:
    """Left subtree, node, right subtree; iterative for deep trees."""
    stack: list[DecompositionNode] = []
    cur = node
    while stack or cur is not None:
        while cur is not None:
            stack.append(cur)
            cur = cur.left
        cur = stack.pop()
        yield cur
        cur = cur.right


def node_count(node: Optional[DecompositionNode]) -> int:
    return sum(1 for _ in inorder(node))


def tree_values(node: Optional[DecompositionNode]) -> tuple[Fraction, ...]:
    """Cut levels in in-order, which is left-to-right along the boundary."""
    return tuple(n.value for n in inorder(node))


def concave_weights(domain: ToricDomain,
                    max_nodes: int = DEFAULT_MAX_NODES,
                    ) -> tuple[WeightExpansion, DecompositionNode]:
    if domain.kind != "concave":
        raise DomainError("concave_weights needs a concave domain")
    tree = _concave_tree(domain, AffineUnimodularMap.identity(),
                         _Budget(max_nodes))
    return WeightExpansion(None, tree_values(tree)), tree


def convex_weights(domain: ToricDomain,
                   max_nodes: int = DEFAULT_MAX_NODES,
                   ) -> tuple[WeightExpansion, ConvexDecomposition]:
    if domain.kind != "convex":
        raise DomainError("convex_weights needs a convex domain")
    b = max(p.x + p.y for p in domain.boundary)
    budget = _Budget(max_nodes)
    budget.tick()  # the head takes one slot
    lpiece, rpiece = _fold([(p.x, p.y) for p in domain.boundary], b)
    left = right = None
    if lpiece is not None:
        # (x, y) -> (y, b - x - y) undoes the left fold
        back = AffineUnimodularMap(0, 1, -1, -1, Point(0, b))
        left = _concave_tree(ToricDomain.concave(lpiece), back, budget)
    if rpiece is not None:
        # (x, y) -> (b - x - y, x) undoes the right fold
        back = AffineUnimodularMap(-1, -1, 1, 0, Point(b, 0))
        right = _concave_tree(ToricDomain.concave(rpiece), back, budget)
    decomp = ConvexDecomposition(head=b, domain=domain, left=left,
                                 right=right)
    weights = tree_values(left) + tree_values(right)
    return WeightExpansion(b, weights), decomp


def build_short_concave(values: Sequence[RationalLike]) -> ToricDomain:
    """Concave domain whose weight expansion is the given multiset.

    The values must be positive and nonincreasing.  The construction
    stacks the triangles along the x-axis: the largest sits at the
    corner and each later one is sheared onto the free boundary edge.
    Peeling the result recovers exactly the input values.
    """
    vals = [rational(v) for v in values]
    if not vals:
        raise DomainError("need at least one weight")
    if any(v <= 0 for v in vals):
        raise DomainError("weights must be positive")
    if any(v2 > v1 for v1, v2 in zip(vals, vals[1:])):
        raise DomainError("weights must be nonincreasing")
    # built back to front; the shear (x, y) -> (x - y + a, y) plants the
    # already built domain onto the slope -1 edge of the triangle of
    # size a
    boundary = [Point(0, vals[-1]), Point(vals[-1], 0)]
    for a in reversed(vals[:-1]):
        shear = AffineUnimodularMap(1, -1, 0, 1, Point(a, 0))
        boundary = [Point(0, a)] + [shear.apply(p) for p in boundary]
    return ToricDomain.concave(boundary)
