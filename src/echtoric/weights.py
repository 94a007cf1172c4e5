"""Weight expansions of toric domains via repeated corner cuts.

A concave domain is peeled by the triangle it shares with the corner:
the cut level is the minimum of x + y over boundary vertices, attained
at one vertex or one edge of slope -1.  The parts left and right of the
cut are normalised back into standard position by integral shears and
peeled again, which terminates for rational data.  The multiset of cut
levels is the weight sequence; the recursion tree remembers enough to
rebuild every triangle: each node keeps its cut level, where the cut
meets the boundary and the accumulated map back to the input
coordinates, and the root also keeps the domain it peeled.

The cuts run on integers.  Both shears (x, y) -> (x, x + y - a) and
(x, y) -> (x + y - a, y) are unimodular with integer translations, so
after one common denominator D is cleared from the root boundary and
the root map, every piece, cut level and map stays integral; only the
finished nodes divide by D again.

A convex domain is handled dually: the head weight is the maximum of
x + y, the two boundary pieces beyond the cut line are folded into
standard concave position (this reverses their orientation) and their
weight sequences are recorded with the head.

Sum rules tie the output to area: for a concave domain the squares of
the weights add up to twice the area, for a convex one the head square
minus the weight squares does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterator, Optional, Sequence

from .domains import ToricDomain
from .errors import DomainError, GeometryError, LimitError
from .geometry import AffineUnimodularMap, Point, RationalLike, rational

DEFAULT_MAX_NODES = 10_000


def left_piece_map(b: Fraction) -> AffineUnimodularMap:
    """(x, y) -> (b - x - y, x): convex piece between the y-axis and the cut."""
    return AffineUnimodularMap(-1, -1, 1, 0, Point(b, 0))


def right_piece_map(b: Fraction) -> AffineUnimodularMap:
    """(x, y) -> (y, b - x - y): convex piece between the cut and the x-axis."""
    return AffineUnimodularMap(0, 1, -1, -1, Point(0, b))


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

    value is the cut level, x1 and x2 the x-coordinates of the first and
    last boundary vertex on the cut line (they differ exactly when the
    boundary has an edge of slope -1 there), all in the normalised
    coordinates of the piece this node peeled.  to_original maps those
    coordinates back to the coordinates of the domain the recursion
    started from.  domain is that piece as a ToricDomain at the root of
    a tree and None below it, where the pieces exist only inside the
    integer cut kernel.
    """

    value: Fraction
    x1: Fraction
    x2: Fraction
    domain: Optional[ToricDomain]
    to_original: AffineUnimodularMap
    left: Optional["DecompositionNode"]
    right: Optional["DecompositionNode"]


@dataclass(frozen=True)
class ConvexDecomposition:
    """Head cut of a convex domain plus the peeled side pieces."""

    head: Fraction
    x1: Fraction
    x2: Fraction
    domain: ToricDomain
    left: Optional[DecompositionNode]
    right: Optional[DecompositionNode]


def _cut(sums: list, extreme: Callable) -> tuple:
    """Level extreme(sums) with the first and last index attaining it.

    Along a valid boundary x + y is unimodal, so the level is attained
    at one vertex or at the two ends of one edge.
    """
    a = extreme(sums)
    i = sums.index(a)
    j = len(sums) - 1 - sums[::-1].index(a)
    if j - i > 1:
        raise GeometryError("x + y is not unimodal along the boundary")
    return a, i, j


def _check_concave(pts: list[tuple]) -> None:
    """The concave-boundary rules of ToricDomain, on (x, y) vertex pairs.

    The pairs are ints in the weight recursion and Fractions in the
    boundary approximations.
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
    # nodes in preorder as (a, x1, x2, map, left, right), children as
    # indices; an explicit stack keeps very unbalanced trees (long
    # Euclid runs) off the interpreter stack
    rows: list[list] = []
    work = [(root_pts, root_map, -1, 4)]
    while work:
        pts, (ma, mb, mc, md, tx, ty), parent, slot = work.pop()
        budget.tick()
        idx = len(rows)
        if parent >= 0:
            rows[parent][slot] = idx
        a, i, j = _cut([x + y for x, y in pts], min)
        if i > 0:
            # the piece goes through (x, y) -> (x, x + y - a), so its map
            # back is to_original after (x, y) -> (x, y - x + a)
            piece = [(x, x + y - a) for x, y in pts[:i + 1]]
            _check_concave(piece)
            work.append((piece, (ma - mb, mb, mc - md, md,
                                 tx + mb * a, ty + md * a), idx, 4))
        if j < len(pts) - 1:
            # (x, y) -> (x + y - a, y), back through (x - y + a, y)
            piece = [(x + y - a, y) for x, y in pts[j:]]
            _check_concave(piece)
            work.append((piece, (ma, mb - ma, mc, md - mc,
                                 tx + ma * a, ty + mc * a), idx, 5))
        rows.append([a, pts[i][0], pts[j][0], (ma, mb, mc, md, tx, ty),
                     None, None])

    # levels and coordinates repeat across nodes, so build each
    # Fraction once
    numerators: set[int] = set()
    for a, x1, x2, (_, _, _, _, tx, ty), _, _ in rows:
        numerators.update((a, x1, x2, tx, ty))
    frac = {n: Fraction(n, D) for n in numerators}
    nodes: list[Optional[DecompositionNode]] = [None] * len(rows)
    for idx in range(len(rows) - 1, -1, -1):
        a, x1, x2, (ma, mb, mc, md, tx, ty), left, right = rows[idx]
        nodes[idx] = DecompositionNode(
            value=frac[a], x1=frac[x1], x2=frac[x2],
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
    bd = domain.boundary
    b, i, j = _cut([p.x + p.y for p in bd], max)
    budget = _Budget(max_nodes)
    budget.tick()  # the head takes one slot
    left = right = None
    if i > 0:
        lm = left_piece_map(b)
        # folding reverses the orientation of the piece
        ldom = ToricDomain.concave([lm.apply(p) for p in bd[i::-1]])
        left = _concave_tree(ldom, lm.inverse(), budget)
    if j < len(bd) - 1:
        rm = right_piece_map(b)
        rdom = ToricDomain.concave([rm.apply(p) for p in reversed(bd[j:])])
        right = _concave_tree(rdom, rm.inverse(), budget)
    decomp = ConvexDecomposition(
        head=b, x1=bd[i].x, x2=bd[j].x, domain=domain,
        left=left, right=right)
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
