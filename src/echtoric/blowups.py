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
construction reports the mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .domains import ToricDomain
from .errors import DomainError
from .geometry import Point, RationalLike, rational
from .weights import (ConvexDecomposition, DecompositionNode, inorder,
                      node_count, tree_values)


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


def _right_spine(node: Optional[DecompositionNode],
                 pos: dict[int, int]) -> list[int]:
    out = []
    while node is not None:
        out.append(pos[id(node)])
        node = node.right
    return out


def _left_spine(node: Optional[DecompositionNode],
                pos: dict[int, int]) -> list[int]:
    out = []
    while node is not None:
        out.append(pos[id(node)])
        node = node.left
    return out


def _cutters(node: DecompositionNode, pos: dict[int, int]) -> list[int]:
    return _right_spine(node.left, pos) + _left_spine(node.right, pos)


def chain_classes_concave(tree: DecompositionNode) -> list[HomologyClass]:
    nodes = list(inorder(tree))
    pos = {id(n): i for i, n in enumerate(nodes)}
    n = len(nodes)
    classes = []
    for i, node in enumerate(nodes):
        coeff = [0] * n
        coeff[i] = 1
        for j in _cutters(node, pos):
            coeff[j] -= 1
        classes.append(HomologyClass(0, tuple(coeff), ()))
    return classes


def sphere_chain_concave(tree: DecompositionNode) -> SphereChain:
    return SphereChain(tuple(chain_classes_concave(tree)),
                       tree_values(tree))


def chain_classes_convex(decomp: ConvexDecomposition) -> list[HomologyClass]:
    left_nodes = list(inorder(decomp.left))[::-1]
    right_nodes = list(inorder(decomp.right))[::-1]
    ordered = left_nodes + right_nodes
    pos = {id(n): i for i, n in enumerate(ordered)}
    m = len(ordered)
    classes = []
    for node in left_nodes:
        coeff = [0] * m
        coeff[pos[id(node)]] = 1
        for j in _cutters(node, pos):
            coeff[j] -= 1
        classes.append(HomologyClass(0, (), tuple(coeff)))
    line = [0] * m
    for j in _left_spine(decomp.left, pos) + _right_spine(decomp.right, pos):
        line[j] -= 1
    classes.append(HomologyClass(1, (), tuple(line)))
    for node in right_nodes:
        coeff = [0] * m
        coeff[pos[id(node)]] = 1
        for j in _cutters(node, pos):
            coeff[j] -= 1
        classes.append(HomologyClass(0, (), tuple(coeff)))
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


def _min_s(domain: ToricDomain) -> Fraction:
    return min(p.x + p.y for p in domain.boundary)


def _sink_forward(bd: Sequence[Point], lam: Fraction) -> list[Point]:
    """Boundary prefix ending where x + y first sinks to lam."""
    for t, p in enumerate(bd):
        s = p.x + p.y
        if s == lam:
            return list(bd[:t + 1])
        if s < lam:
            prev = bd[t - 1]
            sp = prev.x + prev.y
            theta = (sp - lam) / (sp - s)
            return list(bd[:t]) + [prev + (p - prev).scale(theta)]
    raise DomainError("cut level never reached along the boundary")


def _sink_backward(bd: Sequence[Point], lam: Fraction) -> list[Point]:
    """Boundary suffix starting where x + y last sinks to lam."""
    for t in range(len(bd) - 1, -1, -1):
        p = bd[t]
        s = p.x + p.y
        if s == lam:
            return list(bd[t:])
        if s < lam:
            nxt = bd[t + 1]
            sn = nxt.x + nxt.y
            theta = (sn - lam) / (sn - s)
            return [nxt + (p - nxt).scale(theta)] + list(bd[t + 1:])
    raise DomainError("cut level never reached along the boundary")


def _rise_forward(bd: Sequence[Point], lam: Fraction) -> list[Point]:
    """Boundary prefix ending where x + y first rises to lam."""
    for t, p in enumerate(bd):
        s = p.x + p.y
        if s == lam:
            return list(bd[:t + 1])
        if s > lam:
            prev = bd[t - 1]
            sp = prev.x + prev.y
            theta = (lam - sp) / (s - sp)
            return list(bd[:t]) + [prev + (p - prev).scale(theta)]
    raise DomainError("cut level never reached along the boundary")


def _rise_backward(bd: Sequence[Point], lam: Fraction) -> list[Point]:
    """Boundary suffix starting where x + y last rises to lam."""
    for t in range(len(bd) - 1, -1, -1):
        p = bd[t]
        s = p.x + p.y
        if s == lam:
            return list(bd[t:])
        if s > lam:
            nxt = bd[t + 1]
            sn = nxt.x + nxt.y
            theta = (lam - sn) / (s - sn)
            return [nxt + (p - nxt).scale(theta)] + list(bd[t + 1:])
    raise DomainError("cut level never reached along the boundary")


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
    # two passes: cut pieces root-down recording frames, then assemble
    # the perturbed boundaries bottom-up; children point at parent slots
    frames: list[dict] = []
    work: list[tuple[DecompositionNode, ToricDomain, int, str]] = [
        (tree, tree.domain, -1, "left")]
    order = 0
    while work:
        node, dom, parent, side = work.pop()
        idx = len(frames)
        if parent >= 0:
            frames[parent][side] = idx
        lam = _min_s(dom) + ds[order]
        order += 1
        bd = dom.boundary
        frames.append({"lam": lam, "left": None, "right": None})
        left_item = right_item = None
        if node.left is not None:
            if bd[0].x + bd[0].y <= lam:
                raise DomainError(
                    "perturbation too large: left part of a cut vanished")
            chain = _sink_forward(bd, lam)
            piece = ToricDomain.concave(
                [Point(p.x, p.x + p.y - lam) for p in chain])
            left_item = (node.left, piece, idx, "left")
        elif bd[0].x + bd[0].y > lam:
            raise DomainError(
                "boundary rises above the cut of a leaf on the left")
        if node.right is not None:
            if bd[-1].x + bd[-1].y <= lam:
                raise DomainError(
                    "perturbation too large: right part of a cut vanished")
            chain = _sink_backward(bd, lam)
            piece = ToricDomain.concave(
                [Point(p.x + p.y - lam, p.y) for p in chain])
            right_item = (node.right, piece, idx, "right")
        elif bd[-1].x + bd[-1].y > lam:
            raise DomainError(
                "boundary rises above the cut of a leaf on the right")
        # left must pop first so perturbations are consumed in preorder
        if right_item is not None:
            work.append(right_item)
        if left_item is not None:
            work.append(left_item)

    chains: list[Optional[list[Point]]] = [None] * len(frames)
    for idx in range(len(frames) - 1, -1, -1):
        f = frames[idx]
        lam = f["lam"]
        if f["left"] is None:
            left = [Point(0, lam)]
        else:
            left = [Point(p.x, p.y - p.x + lam) for p in chains[f["left"]]]
        if f["right"] is None:
            right = [Point(lam, 0)]
        else:
            right = [Point(p.x - p.y + lam, p.y) for p in chains[f["right"]]]
        # both seam points sit on x + y = lam; the gap edge between the
        # perturbed children must still run down-right
        if left[-1].x > right[0].x:
            raise DomainError(
                "perturbation too large: child pieces overlap across a cut")
        chains[idx] = left + right
    return ToricDomain.concave(chains[0])


def _reroot(node: DecompositionNode, domain: ToricDomain) -> DecompositionNode:
    """The same tree shape hung onto a perturbed root domain."""
    return DecompositionNode(
        value=node.value, x1=node.x1, x2=node.x2, domain=domain,
        to_original=node.to_original, left=node.left, right=node.right)


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
    bd = decomp.domain.boundary
    if decomp.left is not None:
        if bd[0].x + bd[0].y >= lam:
            raise DomainError(
                "perturbation too large: left piece reaches the y-axis")
        chain = _rise_forward(bd, lam)[::-1]
        piece = ToricDomain.concave(
            [Point(lam - p.x - p.y, p.x) for p in chain])
        grown = outer_approximation(_reroot(decomp.left, piece),
                                    ds[1:1 + n_left])
        left_chain = [Point(p.y, lam - p.x - p.y)
                      for p in reversed(grown.boundary)]
    else:
        left_chain = [Point(0, lam)]
    if decomp.right is not None:
        if bd[-1].x + bd[-1].y >= lam:
            raise DomainError(
                "perturbation too large: right piece reaches the x-axis")
        chain = _rise_backward(bd, lam)
        piece = ToricDomain.concave(
            [Point(p.y, lam - p.x - p.y) for p in reversed(chain)])
        grown = outer_approximation(_reroot(decomp.right, piece),
                                    ds[1 + n_left:])
        right_chain = [Point(lam - p.x - p.y, p.x)
                       for p in reversed(grown.boundary)]
    else:
        right_chain = [Point(lam, 0)]
    # seam points lie on x + y = lam; grown sides must leave room between
    if left_chain[-1].x > right_chain[0].x:
        raise DomainError(
            "perturbation too large: grown side pieces overlap")
    return ToricDomain.convex(left_chain + right_chain)
