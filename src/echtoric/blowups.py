"""Sphere chains, homology bookkeeping and boundary approximations.

Every cut in a weight decomposition leaves a sphere behind; reading the
decomposition's rows in-order lists those spheres left to right along
the boundary.  Each sphere's class is its own exceptional class minus
the classes of the cuts that chipped a corner off it: the spheres
touching a row's cut line are the right-spine of its left subtree and
the left-spine of its right subtree, followed through the rows' child
indices.  For a convex domain the two side pieces are read in reversed
order (folding a piece into standard position flips it) around one
extra sphere coming from the cut line itself, whose class starts from
the line class instead.

Homology classes live in the blowup of the plane at points indexed by
the source spheres (E) and the target spheres (Ehat); the intersection
form is diagonal (+1, -1, ..., -1).  A symplectic class stores the
signed coefficients of the form, so pairing it against a sphere class
returns the symplectic area of that sphere.

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
_fold.  Unlike the weight recursion this stays in Fractions: a raised
level cuts edges between vertices, and the interpolated points bring
new denominators at every level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .domains import ToricDomain, _check_concave
from .errors import DomainError
from .geometry import RationalLike, rational
from .weights import (ConvexDecomposition, Decomposition, _fold, _shear_cut,
                      inorder, node_count, tree_values)


@dataclass(frozen=True)
class HomologyClass:
    """Integer class a*L + sum b_i E_i + sum c_j Ehat_j."""

    L: int
    E: tuple[int, ...] = ()
    Ehat: tuple[int, ...] = ()


def _dot(u: Sequence, v: Sequence) -> Fraction:
    total = 0
    for a, b in zip(u, v):  # absent coordinates count as zero
        total += a * b
    return total


def intersection(A: HomologyClass, B: HomologyClass) -> int:
    return A.L * B.L - _dot(A.E, B.E) - _dot(A.Ehat, B.Ehat)


def c1(A: HomologyClass) -> int:
    return 3 * A.L + sum(A.E) + sum(A.Ehat)


@dataclass(frozen=True)
class SymplecticClass:
    """Signed coefficients of the symplectic form on a blowup."""

    ell: Fraction
    e: tuple[Fraction, ...]
    ehat: tuple[Fraction, ...]


def pairing(omega: SymplecticClass, A: HomologyClass) -> Fraction:
    return (omega.ell * A.L - _dot(omega.e, A.E)
            - _dot(omega.ehat, A.Ehat))


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


def chain_classes_concave(dec: Decomposition) -> list[HomologyClass]:
    rows, _ = _class_rows(dec, list(inorder(dec)), 0, node_count(dec))
    return [HomologyClass(0, row, ()) for row in rows]


def sphere_chain_concave(dec: Decomposition) -> SphereChain:
    return SphereChain(tuple(chain_classes_concave(dec)), tree_values(dec))


def chain_classes_convex(decomp: ConvexDecomposition) -> list[HomologyClass]:
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
    return classes


def sphere_chain_convex(decomp: ConvexDecomposition) -> SphereChain:
    left_vals = tree_values(decomp.left)[::-1]
    right_vals = tree_values(decomp.right)[::-1]
    weights = left_vals + (decomp.head,) + right_vals
    return SphereChain(tuple(chain_classes_convex(decomp)), weights,
                       head=decomp.head, line_index=len(left_vals))


def symplectic_class(source: Decomposition,
                     target_decomp: ConvexDecomposition,
                     r: RationalLike = 1) -> SymplecticClass:
    """Form class for packing an r-scaled source into the target.

    e coefficients follow the source chain order, ehat the target chain
    order with the line sphere skipped.
    """
    scale = rational(r)
    if scale <= 0:
        raise DomainError("scale must be positive")
    e = tuple(-scale * v for v in tree_values(source))
    ehat = tuple(-v for v in tree_values(target_decomp.left)[::-1]
                 + tree_values(target_decomp.right)[::-1])
    return SymplecticClass(target_decomp.head, e, ehat)


# -- boundary approximations -----------------------------------------------


Deltas = Union[RationalLike, Sequence[RationalLike]]
Vertex = tuple[Fraction, Fraction]


def _delta_list(deltas: Deltas, count: int) -> list[Fraction]:
    if isinstance(deltas, (list, tuple)):
        vals = [rational(d) for d in deltas]
        if len(vals) != count:
            raise DomainError(
                f"need {count} perturbation entries, got {len(vals)}")
    else:
        vals = [rational(deltas)] * count
    if any(d < 0 for d in vals):
        raise DomainError("perturbations must be nonnegative")
    return vals


def _grow(shape: Decomposition, pts: list[Vertex],
          ds: list[Fraction]) -> ToricDomain:
    """Concave piece pts with every cut of shape pushed up by its delta.

    Only the shape of the rows is read, which children each row has.
    One in-order walk: a row is cut when it is first reached (so ds is
    consumed in preorder) by the weight recursion's _shear_cut, which
    gives its pieces in standard position with their maps back to the
    coordinates of pts.  Each leaf side puts out one vertex, (0, lam) or
    (lam, 0) mapped back.
    """
    rows = shape.rows
    out: list[Vertex] = []
    # M (1, -1) of every node in in-order, which is the order of the gaps
    # between consecutive output vertices
    seams: list[tuple[int, int]] = []
    stack: list[tuple] = []
    cur: Optional[tuple] = (0, pts, (1, 0, 0, 1, 0, 0))
    order = 0
    while stack or cur is not None:
        while cur is not None:
            idx, bd, m = cur
            lam = min(x + y for x, y in bd) + ds[order]
            order += 1
            left, right = _shear_cut(bd, lam, m)
            _, _, lchild, rchild = rows[idx]
            if lchild is not None:
                if left is None:
                    raise DomainError(
                        "perturbation too large: left part of a cut vanished")
                left = (lchild, *left)
            elif left is not None:
                raise DomainError(
                    "boundary rises above the cut of a leaf on the left")
            if rchild is not None:
                if right is None:
                    raise DomainError(
                        "perturbation too large: right part of a cut vanished")
                right = (rchild, *right)
            elif right is not None:
                raise DomainError(
                    "boundary rises above the cut of a leaf on the right")
            stack.append((lam, m, left, right))
            cur = left
        lam, (ma, mb, mc, md, tx, ty), left, right = stack.pop()
        if left is None:
            out.append((mb * lam + tx, md * lam + ty))
        seams.append((ma - mb, mc - md))
        if right is None:
            out.append((ma * lam + tx, mc * lam + ty))
        cur = right
    # both ends of a node's gap sit on its cut line, whose direction
    # maps to (ux, uy); the gap edge must still run down-right, which is
    # forward along that direction
    for (ux, uy), (ax, ay), (bx, by) in zip(seams, out, out[1:]):
        if (bx - ax) * ux + (by - ay) * uy < 0:
            raise DomainError(
                "perturbation too large: child pieces overlap across a cut")
    return ToricDomain.concave(out)


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
    return _grow(dec, [(p.x, p.y) for p in dec.domain.boundary], ds)


def inner_approximation(decomp: ConvexDecomposition,
                        deltas: Deltas) -> ToricDomain:
    """Convex domain inside the decomposed one: head lowered, sides grown.

    The first preorder perturbation lowers the cut diagonal; the rest
    enlarge the side pieces (removed material) through their outer
    approximations, so the remainder shrinks.
    """
    n_left = node_count(decomp.left)
    total = 1 + n_left + node_count(decomp.right)
    ds = _delta_list(deltas, total)
    lam = decomp.head - ds[0]
    if lam <= 0:
        raise DomainError("perturbation swallows the whole head")
    lpiece, rpiece = _fold([(p.x, p.y) for p in decomp.domain.boundary], lam)
    if decomp.left is not None:
        if lpiece is None:
            raise DomainError(
                "perturbation too large: left piece reaches the y-axis")
        _check_concave(lpiece)
        grown = _grow(decomp.left, lpiece, ds[1:1 + n_left])
        left_chain = [(p.y, lam - p.x - p.y) for p in reversed(grown.boundary)]
    else:
        left_chain = [(0, lam)]
    if decomp.right is not None:
        if rpiece is None:
            raise DomainError(
                "perturbation too large: right piece reaches the x-axis")
        _check_concave(rpiece)
        grown = _grow(decomp.right, rpiece, ds[1 + n_left:])
        right_chain = [(lam - p.x - p.y, p.x) for p in reversed(grown.boundary)]
    else:
        right_chain = [(lam, 0)]
    # seam points lie on x + y = lam; grown sides must leave room between
    if left_chain[-1][0] > right_chain[0][0]:
        raise DomainError(
            "perturbation too large: grown side pieces overlap")
    return ToricDomain.convex(left_chain + right_chain)
