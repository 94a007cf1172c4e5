"""Sphere chains and boundary approximations.

Every cut in a weight decomposition leaves a sphere behind; reading the
decomposition's rows in-order lists those spheres left to right along
the boundary.  Each sphere's class is its own exceptional class minus
the classes of the cuts that chipped a corner off it: the spheres
touching a row's cut line are the right-spine of its left subtree and
the left-spine of its right subtree, followed through the rows' child
indices.  For a convex domain the two side pieces are read in reversed
order (folding a piece into standard position flips it) around one
extra sphere coming from the cut line itself, whose class starts from
the line class instead.  The classes are those of classes.py, a
concave chain's in the E_i and a convex chain's in L and the Ehat_j.
Entry i of a chain carries the size label of its own exceptional
class, so the weights in chain order are the form that classes.area
reads: a source chain's weights are its sizes, and a target chain's
head and its weights without the line sphere's are its head and hats.

The boundary approximations perturb a decomposition: pushing every cut
level up by a small amount produces a slightly larger concave domain
with one boundary edge per row; lowering a convex head and enlarging
the side pieces produces a slightly smaller convex domain.
Perturbation sizes are given per row in preorder (or one scalar for
all) and must be small enough to keep the tree shape, which the rows'
child indices give, otherwise the construction reports the mismatch.
One walk down that shape cuts each piece at its raised level and
composes the piece's map back to the input coordinates; every leaf
side then puts out one vertex, so the result is assembled without
re-mapping any child boundary.  The cut at a raised level and the
fold at a lowered head are the weight recursion's own _shear_cut and
_fold, on integers as there, and the walk checks only what a
perturbation can break (see _grow).  A raised level cuts edges between
vertices, and the interpolated points bring new denominators at every
level, so each piece carries its own denominator E: its vertices and
its map's translation are integers over E.  Raising a level and
cutting inside an edge multiply E, and one gcd per cut divides out
what the piece no longer needs.  A triangle piece, the only kind an
ellipsoid's walk meets, has a path of rows, which _grow_path grows in
one loop over plain integers.  The finished boundary goes to
ToricDomain as integers over the lcm of those denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Optional, Sequence, Union

from .classes import HomologyClass
from .domains import ToricDomain
from .errors import DomainError
from .geometry import RationalLike, ratio, rational
from .weights import (ConvexDecomposition, Decomposition, _fold, _shear_cut,
                      inorder, node_count, tree_values)


@dataclass(frozen=True)
class SphereChain:
    """Sphere classes in boundary order with their size labels.

    head and line_index are set for chains of convex domains, where one
    chain entry is the line sphere on the cut diagonal.
    """

    classes: tuple[HomologyClass, ...]
    weights: tuple[Fraction, ...]
    head: Optional[Fraction] = None
    line_index: Optional[int] = None


def _spine(rows: list, pos: list[int], idx: Optional[int],
           side: int) -> list[int]:
    """Chain positions down the spine from row idx through child slot
    side, 2 for left or 3 for right."""
    out = []
    while idx is not None:
        out.append(pos[idx])
        idx = rows[idx][side]
    return out


def _class_rows(dec: Decomposition, order: list[int], start: int,
                width: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Each row's own class minus the classes of its cutters, and the
    chain position of every row.

    The rows in order sit at positions start, start + 1, ... of a chain
    of width spheres.  The cutters are the right-spine of the left
    subtree and the left-spine of the right subtree.
    """
    rows = dec.rows
    pos = [0] * len(rows)
    for i, idx in enumerate(order, start):
        pos[idx] = i
    out = []
    for idx in order:
        _, _, left, right = rows[idx]
        coeff = [0] * width
        coeff[pos[idx]] = 1
        for j in _spine(rows, pos, left, 3) + _spine(rows, pos, right, 2):
            coeff[j] -= 1
        out.append(tuple(coeff))
    return out, pos


def sphere_chain_concave(dec: Decomposition) -> SphereChain:
    rows, _ = _class_rows(dec, list(inorder(dec)), 0, node_count(dec))
    return SphereChain(tuple(HomologyClass(0, row, ()) for row in rows),
                       tree_values(dec))


def sphere_chain_convex(decomp: ConvexDecomposition) -> SphereChain:
    n_left = node_count(decomp.left)
    width = n_left + node_count(decomp.right)
    classes: list[HomologyClass] = []
    line = [0] * width
    # the line sphere meets the left-spine of the left piece and the
    # right-spine of the right one
    for dec, side, start in ((decomp.left, 2, 0), (decomp.right, 3, n_left)):
        if dec is not None:
            rows, pos = _class_rows(dec, list(inorder(dec))[::-1], start,
                                    width)
            classes += [HomologyClass(0, (), row) for row in rows]
            for j in _spine(dec.rows, pos, 0, side):
                line[j] -= 1
    classes.insert(n_left, HomologyClass(1, (), tuple(line)))
    weights = (tree_values(decomp.left)[::-1] + (decomp.head,)
               + tree_values(decomp.right)[::-1])
    return SphereChain(tuple(classes), weights, head=decomp.head,
                       line_index=n_left)


# -- boundary approximations -----------------------------------------------


Deltas = Union[RationalLike, Sequence[RationalLike]]


def _delta_list(deltas: Deltas, count: int) -> list[tuple[int, int]]:
    """The perturbations in lowest terms as integer pairs (n, q) for n/q,
    one per row; a scalar is read and checked once."""
    if isinstance(deltas, (list, tuple)):
        vals = [ratio(rational(d)) for d in deltas]
        if len(vals) != count:
            raise DomainError(
                f"need {count} perturbation entries, got {len(vals)}")
        if any(n < 0 for n, _ in vals):
            raise DomainError("perturbations must be nonnegative")
        return vals
    val = ratio(rational(deltas))
    if val[0] < 0:
        raise DomainError("perturbations must be nonnegative")
    return [val] * count


def _reduced(piece: list, m: tuple, E: int) -> tuple[list, int, tuple]:
    """A piece over E and its map, divided by their greatest common
    divisor with E; returns the piece, its denominator and the map."""
    g = gcd(E, m[4], m[5], *chain.from_iterable(piece))
    if g > 1:
        piece = [(x // g, y // g) for x, y in piece]
        m = (*m[:4], m[4] // g, m[5] // g)
        E //= g
    return piece, E, m


def _grow_path(rows: list, idx: int, X: int, Y: int, E: int, m: tuple,
               ds: list[tuple[int, int]], order: int, out: list) -> int:
    """Grow the triangle [(0, Y), (X, 0)] over E at row idx in closed
    form; appends its in-order vertices and returns the next preorder
    position in ds.

    Cut at lam >= min(X, Y), a triangle rises above lam on one side at
    most, so its rows are a path.  Each step is what _shear_cut and
    _reduced give a two-vertex chain: a left side over E k, for k = 1
    if X = lam and Y - X otherwise, is the piece (0, (Y - lam) k),
    (X (Y - lam), 0) (X itself when k = 1) with map (ma - mb, mb,
    mc - md, md, (tx + mb lam) k, (ty + md lam) k); a right side
    mirrors it.  In in-order, the nodes with only a right child put out
    their left vertex in path order, the leaf both its vertices, and
    the nodes with only a left child their right vertex in reverse path
    order.  As in _grow, only a part that vanished is checked.
    """
    ma, mb, mc, md, tx, ty = m
    tail = []
    while True:
        n, q = ds[order]
        order += 1
        lam = X if X < Y else Y
        if n:
            g = gcd(q, E)
            q //= g
            lam = lam * q + n * (E // g)
            if q > 1:
                X, Y, tx, ty, E = X * q, Y * q, tx * q, ty * q, E * q
        _, _, lchild, rchild = rows[idx]
        if Y <= lam and lchild is not None:
            raise DomainError(
                "perturbation too large: left part of a cut vanished")
        if X <= lam and rchild is not None:
            raise DomainError(
                "perturbation too large: right part of a cut vanished")
        if Y > lam:
            tail.append((ma * lam + tx, mc * lam + ty, E))
            if X == lam:
                k, Y = 1, Y - lam
            else:
                k = Y - X
                X, Y = X * (Y - lam), (Y - lam) * k
            ma, mc = ma - mb, mc - md
            tx, ty = (tx + mb * lam) * k, (ty + md * lam) * k
            idx = lchild
        else:
            out.append((mb * lam + tx, md * lam + ty, E))
            if X <= lam:
                out.append((ma * lam + tx, mc * lam + ty, E))
                break
            if Y == lam:
                k, X = 1, X - lam
            else:
                k = X - Y
                X, Y = (X - lam) * k, Y * (X - lam)
            mb, md = mb - ma, md - mc
            tx, ty = (tx + ma * lam) * k, (ty + mc * lam) * k
            idx = rchild
        E *= k
        g = gcd(E, tx, ty, X, Y)
        if g > 1:
            X, Y, tx, ty, E = X // g, Y // g, tx // g, ty // g, E // g
    out.extend(reversed(tail))
    return order


def _grow(shape: Decomposition, pts: Sequence[tuple[int, int]], E: int,
          ds: list[tuple[int, int]]) -> ToricDomain:
    """Concave piece pts over E with every cut of shape pushed up by its
    delta.

    Only the shape of the rows is read, which children each row has.
    One in-order walk: a row is cut when it is first reached (so ds is
    consumed in preorder) by the weight recursion's _shear_cut, which
    gives its pieces in standard position with their maps back to the
    coordinates of pts, over their own denominators E.  Its level
    low/E + n/q, for low its minimum of x + y and n/q its delta, is the
    integer low q/g + n E/g once the piece is taken over E q/g, for
    g = gcd(q, E); each side of the cut then comes back over that times
    the side's scale k and is reduced by one gcd.  Each leaf side puts
    out one vertex, (0, lam) or (lam, 0) mapped back, as an integer pair
    over its E.  A triangle piece has a path of rows below it, which
    _grow_path grows in closed form, as _euclid writes the rows of a
    triangle: its nodes are consecutive in preorder and its in-order
    output comes before anything the walk puts out after reaching it.

    Only two things are checked.  A side with a child row must keep a
    part; a side without one has none.  Raising a cut, or lowering the
    head above a flank, shortens the parts beyond it from the cut's side
    only, so the piece at a row is a translate of a sub-chain of the
    exact one.  If x + y does not fall along the exact piece's first
    edge (no left child), it falls along no edge of the sub-chain, whose
    slopes are no smaller, so a level at or above its minimum leaves no
    left part; the right side mirrors this.  And child pieces must not
    overlap across a cut: each side multiplies the linear part M of a
    map that starts from the identity by L = (1 0; -1 1) or
    R = (1 -1; 0 1), which both map the cone x > 0 > y into itself, so
    each cut direction u = M (1, -1) has ux > 0.  The vertices a and b
    on either side of a cut lie on its line, so b - a = t u, and t >= 0
    exactly when bx ea >= ax eb.
    """
    rows = shape.rows
    # (X, Y, E) for the vertex (X/E, Y/E)
    out: list[tuple[int, int, int]] = []
    stack: list[tuple] = []
    cur: Optional[tuple] = (0, pts, E, (1, 0, 0, 1, 0, 0))
    order = 0
    while stack or cur is not None:
        if cur is None:
            lam, E, (ma, mb, mc, md, tx, ty), left, right = stack.pop()
            if left is None:
                out.append((mb * lam + tx, md * lam + ty, E))
            if right is None:
                out.append((ma * lam + tx, mc * lam + ty, E))
            cur = right
            continue
        idx, bd, E, m = cur
        if len(bd) == 2:
            order = _grow_path(rows, idx, bd[1][0], bd[0][1], E, m, ds,
                               order, out)
            cur = None
            continue
        lam = min(x + y for x, y in bd)
        n, q = ds[order]
        order += 1
        if n:
            g = gcd(q, E)
            q //= g
            lam = lam * q + n * (E // g)
            if q > 1:
                bd = [(x * q, y * q) for x, y in bd]
                m = (*m[:4], m[4] * q, m[5] * q)
                E *= q
        left, right = _shear_cut(bd, lam, m)
        _, _, lchild, rchild = rows[idx]
        if lchild is not None:
            if left is None:
                raise DomainError(
                    "perturbation too large: left part of a cut vanished")
            piece, lm, k = left
            left = (lchild, *_reduced(piece, lm, E * k))
        if rchild is not None:
            if right is None:
                raise DomainError(
                    "perturbation too large: right part of a cut vanished")
            piece, rm, k = right
            right = (rchild, *_reduced(piece, rm, E * k))
        stack.append((lam, E, m, left, right))
        cur = left
    for (ax, _, ea), (bx, _, eb) in zip(out, out[1:]):
        if bx * ea < ax * eb:
            raise DomainError(
                "perturbation too large: child pieces overlap across a cut")
    D = lcm(*(e for _, _, e in out))
    return ToricDomain("concave", D,
                       tuple((x * (D // e), y * (D // e)) for x, y, e in out))


def outer_approximation(dec: Decomposition, deltas: Deltas) -> ToricDomain:
    """Concave domain containing the decomposed one, cut levels pushed up.

    Every node cuts at its local minimum of x + y plus its perturbation;
    with all perturbations positive the result has exactly one boundary
    edge per node, in chain order.  Perturbations are consumed in
    preorder.  A perturbation too large to keep the tree shape raises.
    """
    if dec.domain is None:
        raise DomainError(
            "outer approximation needs the decomposition of a concave domain")
    ds = _delta_list(deltas, node_count(dec))
    return _grow(dec, dec.domain.ints, dec.domain.D, ds)


def _unfold(grown: ToricDomain, c: int, F: int,
            left: bool) -> list[tuple[int, int]]:
    """A grown flank over F, a multiple of its D, folded back through
    x + y = c/F, in boundary order: the left flank goes back through
    (x, y) -> (y, c - x - y), the right one through (x, y) ->
    (c - x - y, x), both over F.
    """
    a = F // grown.D
    pts = [(x * a, y * a) for x, y in reversed(grown.ints)]
    if left:
        return [(y, c - x - y) for x, y in pts]
    return [(c - x - y, x) for x, y in pts]


def inner_approximation(decomp: ConvexDecomposition,
                        deltas: Deltas) -> ToricDomain:
    """Convex domain inside the decomposed one: head lowered, sides grown.

    The first preorder perturbation lowers the cut diagonal; the rest
    enlarge the side pieces (removed material) through their outer
    approximations, so the remainder shrinks.  The boundary is taken
    over the common denominator D of its own and of the first
    perturbation, which the lowered head is over too, so the fold and
    the grown pieces run on integers.  Its flanks are valid (see _fold).
    """
    n_left = node_count(decomp.left)
    total = 1 + n_left + node_count(decomp.right)
    ds = _delta_list(deltas, total)
    dom, (p, q) = decomp.domain, ds[0]
    D = lcm(dom.D, q)
    s = D // dom.D
    level = decomp.top * s - p * (D // q)  # the lowered head times D
    if level <= 0:
        raise DomainError("perturbation swallows the whole head")
    lpiece, rpiece = _fold([(x * s, y * s) for x, y in dom.ints], level)
    left = right = None
    if decomp.left is not None:
        if lpiece is None:
            raise DomainError(
                "perturbation too large: left piece reaches the y-axis")
        flank, k = lpiece
        left = _grow(decomp.left, flank, D * k, ds[1:1 + n_left])
    if decomp.right is not None:
        if rpiece is None:
            raise DomainError(
                "perturbation too large: right piece reaches the x-axis")
        flank, k = rpiece
        right = _grow(decomp.right, flank, D * k, ds[1 + n_left:])
    # the boundary goes out over one common denominator F
    F = lcm(D, *(grown.D for grown in (left, right) if grown))
    c = level * (F // D)
    left_chain = _unfold(left, c, F, True) if left else [(0, c)]
    right_chain = _unfold(right, c, F, False) if right else [(c, 0)]
    # seam points lie on x + y = lam; grown sides must leave room between
    if left_chain[-1][0] > right_chain[0][0]:
        raise DomainError(
            "perturbation too large: grown side pieces overlap")
    return ToricDomain("convex", F, tuple(left_chain + right_chain))
