"""Sphere chains, homology bookkeeping and boundary approximations.

Every cut in a weight decomposition leaves a sphere behind; reading the
decomposition tree in-order lists those spheres left to right along the
boundary.  Each sphere's class is its own exceptional class minus the
classes of the cuts that chipped a corner off it: the spheres touching
a node's cut line are the right-spine of its left subtree and the
left-spine of its right subtree.  For a convex domain the two side
trees are read in reversed order (folding a piece into standard
position flips it) around one extra sphere coming from the cut line
itself, whose class starts from the line class instead.

Homology classes live in the blowup of the plane at points indexed by
the source spheres (E) and the target spheres (Ehat); the intersection
form is diagonal (+1, -1, ..., -1).  A symplectic class stores the
signed coefficients of the form, so pairing it against a sphere class
returns the symplectic area of that sphere.

The boundary approximations perturb a decomposition: pushing every cut
level up by a small amount produces a slightly larger concave domain
with one boundary edge per tree node; lowering a convex head and
enlarging the side pieces produces a slightly smaller convex domain.
Perturbation sizes are given per node in preorder (or one scalar for
all) and must be small enough to keep the tree shape, otherwise the
construction reports the mismatch.  One walk down the tree cuts each
piece at its raised level and composes the piece's map back to the
input coordinates; every leaf side then puts out one vertex, so the
result is assembled without re-mapping any child boundary.  The cut at
a raised level and the fold at a lowered head are the weight
recursion's own _shear_cut and _fold.  Unlike the weight recursion
this stays in Fractions: a raised level cuts edges between vertices,
and the interpolated points bring new denominators at every level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .domains import ToricDomain, _check_concave
from .errors import DomainError
from .geometry import RationalLike, rational
from .weights import (ConvexDecomposition, DecompositionNode, _fold,
                      _shear_cut, inorder, node_count, tree_values)


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


def _spine(node: Optional[DecompositionNode], side: str,
           pos: dict[int, int]) -> list[int]:
    """Positions along the spine from node down its side, "left" or "right"."""
    out = []
    while node is not None:
        out.append(pos[id(node)])
        node = getattr(node, side)
    return out


def _class_rows(nodes: list[DecompositionNode],
                pos: dict[int, int]) -> list[tuple[int, ...]]:
    """Each node's own class minus the classes of its cutters.

    The cutters are the right-spine of the left subtree and the
    left-spine of the right subtree.
    """
    rows = []
    for node in nodes:
        coeff = [0] * len(pos)
        coeff[pos[id(node)]] = 1
        for j in (_spine(node.left, "right", pos)
                  + _spine(node.right, "left", pos)):
            coeff[j] -= 1
        rows.append(tuple(coeff))
    return rows


def chain_classes_concave(tree: DecompositionNode) -> list[HomologyClass]:
    nodes = list(inorder(tree))
    pos = {id(n): i for i, n in enumerate(nodes)}
    return [HomologyClass(0, row, ()) for row in _class_rows(nodes, pos)]


def sphere_chain_concave(tree: DecompositionNode) -> SphereChain:
    return SphereChain(tuple(chain_classes_concave(tree)),
                       tree_values(tree))


def chain_classes_convex(decomp: ConvexDecomposition) -> list[HomologyClass]:
    left_nodes = list(inorder(decomp.left))[::-1]
    right_nodes = list(inorder(decomp.right))[::-1]
    nodes = left_nodes + right_nodes
    pos = {id(n): i for i, n in enumerate(nodes)}
    classes = [HomologyClass(0, (), row) for row in _class_rows(nodes, pos)]
    line = [0] * len(nodes)
    for j in (_spine(decomp.left, "left", pos)
              + _spine(decomp.right, "right", pos)):
        line[j] -= 1
    classes.insert(len(left_nodes), HomologyClass(1, (), tuple(line)))
    return classes


def sphere_chain_convex(decomp: ConvexDecomposition) -> SphereChain:
    left_vals = tree_values(decomp.left)[::-1]
    right_vals = tree_values(decomp.right)[::-1]
    weights = left_vals + (decomp.head,) + right_vals
    return SphereChain(tuple(chain_classes_convex(decomp)), weights,
                       head=decomp.head, line_index=len(left_vals))


def symplectic_class(source_tree: DecompositionNode,
                     target_decomp: ConvexDecomposition,
                     r: RationalLike = 1) -> SymplecticClass:
    """Form class for packing an r-scaled source into the target.

    e coefficients follow the source chain order, ehat the target chain
    order with the line sphere skipped.
    """
    scale = rational(r)
    if scale <= 0:
        raise DomainError("scale must be positive")
    e = tuple(-scale * v for v in tree_values(source_tree))
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


def _grow(shape: DecompositionNode, pts: list[Vertex],
          ds: list[Fraction]) -> ToricDomain:
    """Concave piece pts with every cut of shape pushed up by its delta.

    One in-order walk: a node is cut when it is first reached (so ds is
    consumed in preorder) by the weight recursion's _shear_cut, which
    gives its pieces in standard position with their maps back to the
    coordinates of pts.  Each leaf side puts out one vertex, (0, lam) or
    (lam, 0) mapped back.
    """
    out: list[Vertex] = []
    # M (1, -1) of every node in in-order, which is the order of the gaps
    # between consecutive output vertices
    seams: list[tuple[int, int]] = []
    stack: list[tuple] = []
    cur: Optional[tuple] = (shape, pts, (1, 0, 0, 1, 0, 0))
    order = 0
    while stack or cur is not None:
        while cur is not None:
            node, bd, m = cur
            lam = min(x + y for x, y in bd) + ds[order]
            order += 1
            left, right = _shear_cut(bd, lam, m)
            if node.left is not None:
                if left is None:
                    raise DomainError(
                        "perturbation too large: left part of a cut vanished")
                left = (node.left, *left)
            elif left is not None:
                raise DomainError(
                    "boundary rises above the cut of a leaf on the left")
            if node.right is not None:
                if right is None:
                    raise DomainError(
                        "perturbation too large: right part of a cut vanished")
                right = (node.right, *right)
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


def outer_approximation(tree: DecompositionNode,
                        deltas: Deltas) -> ToricDomain:
    """Concave domain containing the tree's domain, cut levels pushed up.

    Every node cuts at its local minimum of x + y plus its perturbation;
    with all perturbations positive the result has exactly one boundary
    edge per node, in chain order.  Perturbations are consumed in
    preorder.  A perturbation too large to keep the tree shape raises.
    """
    if tree.domain is None:
        raise DomainError("outer approximation needs the root of a tree")
    ds = _delta_list(deltas, node_count(tree))
    return _grow(tree, [(p.x, p.y) for p in tree.domain.boundary], ds)


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
