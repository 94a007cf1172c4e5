import hashlib
import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from echtoric import (DomainError, HomologyClass, ToricDomain, area, c1,
                      concave_weights, contains, convex_weights,
                      inner_approximation, intersection, node_count,
                      outer_approximation, sphere_chain_concave,
                      sphere_chain_convex)
from echtoric.blowups import _side_state
from echtoric.domains import _check_concave

from generators import random_concave, random_convex

OMEGA1 = ToricDomain.concave([("0", "10/3"), ("2/3", "4/3"),
                              ("4/3", "2/3"), ("7/3", "0")])
OMEGA2 = ToricDomain.convex([(0, 1), (1, 2), (5, 0)])
SQUARE = ToricDomain.convex([(0, 1), (1, 1), (1, 0)])
F = Fraction


def src_tree(dom=OMEGA1):
    return concave_weights(dom)[1]


def tgt_decomp(dom=OMEGA2):
    return convex_weights(dom)[1]


# -- chain classes -----------------------------------------------------------

def test_concave_chain_reference():
    chain = sphere_chain_concave(src_tree())
    assert [c.E for c in chain.classes] == [
        (1, 0, 0, 0, 0), (-1, 1, 0, 0, 0), (0, -1, 1, -1, -1),
        (0, 0, 0, 1, 0), (0, 0, 0, -1, 1)]
    assert all(c.L == 0 and c.Ehat == () for c in chain.classes)
    assert chain.weights == (F(2, 3), F(2, 3), 2, F(1, 3), F(1, 3))
    assert chain.head is None and chain.line_index is None


def test_concave_chain_small_cases():
    chain = sphere_chain_concave(src_tree(ToricDomain.ball(3)))
    assert [c.E for c in chain.classes] == [(1,)]
    chain = sphere_chain_concave(src_tree(ToricDomain.ellipsoid(1, 2)))
    assert [c.E for c in chain.classes] == [(1, 0), (-1, 1)]
    assert chain.weights == (1, 1)


def test_convex_chain_reference():
    chain = sphere_chain_convex(tgt_decomp())
    assert [(c.L, c.Ehat) for c in chain.classes] == [
        (0, (1, 0, 0)), (0, (-1, 1, -1)), (0, (0, 0, 1)),
        (1, (0, -1, -1))]
    assert chain.weights == (1, 3, 2, 5)
    assert chain.head == 5 and chain.line_index == 3


def test_convex_chain_small_cases():
    chain = sphere_chain_convex(tgt_decomp(ToricDomain.ball(4, kind="convex")))
    assert chain.classes == (HomologyClass(1, (), ()),)
    assert chain.weights == (4,) and chain.line_index == 0
    chain = sphere_chain_convex(tgt_decomp(SQUARE))
    assert [(c.L, c.Ehat) for c in chain.classes] == [
        (0, (1, 0)), (1, (-1, -1)), (0, (0, 1))]
    assert chain.weights == (1, 2, 1) and chain.line_index == 1


def test_intersection_and_c1():
    L = HomologyClass(1)
    e21 = HomologyClass(0, (-1, 1))
    assert intersection(L, L) == 1
    assert intersection(e21, e21) == -2
    assert intersection(HomologyClass(0, (1, 0)), e21) == 1
    hard = HomologyClass(0, (0, -1, 1, -1, -1))
    assert c1(hard) == -2 and intersection(hard, hard) == -4
    # mixed-length vectors pad with zeros
    assert intersection(HomologyClass(0, (1,)), HomologyClass(0, (1, 5))) == -1
    # the area form: head on L, sizes on E, hats on Ehat
    line = HomologyClass(1, (-1, -1), (-1,))
    assert area(line, 5, (1, 2), (F(1, 2),)) == F(3, 2)
    assert area(HomologyClass(2), 3) == 6
    assert area(HomologyClass(0, (1, 1)), 0, (7,)) == 7


# -- the form the chains carry and its areas ---------------------------------

def target_form(target):
    """A convex chain's head and its weights off the line sphere."""
    i = target.line_index
    return target.head, target.weights[:i] + target.weights[i + 1:]


def chain_areas(source, target):
    """Areas of both chains' classes for the form their weights give:
    the target's head on L, the source's weights on E and the target's
    other weights on Ehat."""
    head, hats = target_form(target)
    return [[area(c, head, source.weights, hats) for c in ch.classes]
            for ch in (source, target)]


def test_area_pairings_reference():
    src_areas, tgt_areas = chain_areas(sphere_chain_concave(src_tree()),
                                       sphere_chain_convex(tgt_decomp()))
    assert src_areas == [F(2, 3), 0, F(2, 3), F(1, 3), 0]
    assert tgt_areas == [1, 0, 2, 0]
    assert all(a >= 0 for a in src_areas + tgt_areas)


def test_area_pairings_nonnegative_random():
    rng = random.Random(17)
    for _ in range(20):
        source = sphere_chain_concave(src_tree(random_concave(rng)))
        target = sphere_chain_convex(tgt_decomp(random_convex(rng)))
        for areas in chain_areas(source, target):
            assert all(a >= 0 for a in areas)


# -- outer approximation -------------------------------------------------------

def B(*pts):
    return tuple((F(x), F(y)) for x, y in pts)


def boundary_of(dom):
    return tuple((p.x, p.y) for p in dom.boundary)


def test_outer_zero_delta_roundtrip():
    assert boundary_of(outer_approximation(src_tree(), 0)) == \
        boundary_of(OMEGA1)


def test_outer_single_node():
    out = outer_approximation(src_tree(ToricDomain.ball(2)), F(1, 4))
    assert boundary_of(out) == B((0, F(9, 4)), (F(9, 4), 0))


def test_outer_reference_equal_deltas():
    out = outer_approximation(src_tree(), F(1, 12))
    assert boundary_of(out) == B(
        (0, F(41, 12)), (F(5, 8), F(37, 24)), (F(17, 24), F(11, 8)),
        (F(3, 2), F(7, 12)), (F(9, 4), F(1, 12)), (F(29, 12), 0))
    assert contains(out, OMEGA1)
    assert not contains(OMEGA1, out)


def test_outer_reference_root_only():
    out = outer_approximation(src_tree(), [F(1, 10), 0, 0, 0, 0])
    assert boundary_of(out) == B(
        (0, F(10, 3)), (F(37, 60), F(89, 60)), (F(49, 30), F(7, 15)),
        (F(7, 3), 0))
    assert contains(out, OMEGA1)


def test_outer_area_converges():
    base = OMEGA1.area()
    excess = []
    for d in (F(1, 12), F(1, 24), F(1, 48)):
        out = outer_approximation(src_tree(), d)
        excess.append((out.area() - base, d))
    for gap, d in excess:
        assert 0 < gap <= 5 * d
    assert excess[0][0] > excess[1][0] > excess[2][0]


def test_outer_rejections():
    tree = src_tree()
    with pytest.raises(DomainError):
        outer_approximation(tree, [F(1, 12)] * 2)
    with pytest.raises(DomainError):
        outer_approximation(tree, -1)
    with pytest.raises(DomainError, match="part of a cut vanished"):
        outer_approximation(tree, [10, 0, 0, 0, 0])
    # pushing only a child's level up collides with the parent's cut
    two = src_tree(ToricDomain.ellipsoid(1, 2))
    with pytest.raises(DomainError, match="pieces overlap across a cut"):
        outer_approximation(two, [0, F(1, 2)])
    # a convex domain's side pieces keep no concave domain to grow
    with pytest.raises(DomainError, match="decomposition of a concave"):
        outer_approximation(tgt_decomp().left, F(1, 12))


# -- inner approximation -------------------------------------------------------

def test_inner_zero_delta_roundtrip():
    assert boundary_of(inner_approximation(tgt_decomp(), 0)) == \
        boundary_of(OMEGA2)


def test_inner_single_node():
    inner = inner_approximation(
        tgt_decomp(ToricDomain.ball(2, kind="convex")), F(1, 4))
    assert boundary_of(inner) == B((0, F(7, 4)), (F(7, 4), 0))


def test_inner_reference_equal_deltas():
    inner = inner_approximation(tgt_decomp(), F(1, 12))
    assert boundary_of(inner) == B(
        (0, F(11, 12)), (1, F(23, 12)), (F(13, 12), F(23, 12)),
        (F(59, 12), 0))
    assert contains(OMEGA2, inner)
    assert not contains(inner, OMEGA2)


def test_inner_square_uneven_deltas():
    inner = inner_approximation(tgt_decomp(SQUARE),
                                [F(1, 8), F(1, 32), F(1, 32)])
    assert boundary_of(inner) == B(
        (0, F(31, 32)), (F(29, 32), F(31, 32)), (F(31, 32), F(29, 32)),
        (F(31, 32), 0))
    assert contains(SQUARE, inner)


def _approx_outcome(fn, arg, deltas):
    try:
        dom = fn(arg, deltas)
    except DomainError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    pts = [[str(p.x), str(p.y)] for p in dom.boundary]
    # the long Euclid runs carry huge denominators: those keep a digest
    text = ";".join(f"{x},{y}" for x, y in pts)
    if len(text) <= 2000:
        return {"approx": pts}
    return {"vertices": len(pts),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def test_approx_golden(data_dir):
    # boundaries or error messages recorded before the approximations
    # moved onto composed maps: outer approximations of the reference
    # domains, E(1,N) for N <= 200, Fibonacci ellipsoids and 30 random
    # concave domains; inner approximations of the reference targets,
    # (0,1),(1,1),(N,0), (0,N),(1,1),(1,0) and 30 random convex domains;
    # scalar deltas and two per-node mixes each
    golden = json.loads((data_dir / "approx_golden.json").read_text())
    assert len(golden) == 1132
    for entry in golden:
        dom = ToricDomain.of(entry["type"], entry["domain"])
        deltas = entry["deltas"]
        if isinstance(deltas, list):
            deltas = [F(d) for d in deltas]
        else:
            deltas = F(deltas)
        if entry["op"] == "outer":
            got = _approx_outcome(outer_approximation, src_tree(dom), deltas)
        else:
            got = _approx_outcome(inner_approximation, tgt_decomp(dom), deltas)
        want = {k: v for k, v in entry.items()
                if k in ("approx", "vertices", "sha256", "error")}
        assert got == want, (entry["name"], entry["deltas"])


def test_inner_rejections():
    with pytest.raises(DomainError, match="grown side pieces overlap"):
        # the head must drop by at least what the side pieces grow
        inner_approximation(tgt_decomp(SQUARE), F(1, 12))
    with pytest.raises(DomainError, match="swallows the whole head"):
        inner_approximation(tgt_decomp(ToricDomain.ball(1, kind="convex")), 2)
    with pytest.raises(DomainError):
        inner_approximation(tgt_decomp(), [F(1, 12)] * 3)
    # a left flank grown as far as the head's other end: the boundary
    # would start at the origin
    with pytest.raises(DomainError, match="perturbation too large: grown "
                                          "left piece reaches the origin"):
        inner_approximation(
            tgt_decomp(ToricDomain.convex([(0, 2), (1, 2), (3, 0)])),
            [F(1, 100), 2])


# -- strict positivity under perturbation --------------------------------------

def concave_gap_areas(dom):
    chain = sphere_chain_concave(concave_weights(dom)[1])
    return [area(c, 0, chain.weights) for c in chain.classes]


def convex_gap_areas(dom):
    chain = sphere_chain_convex(convex_weights(dom)[1])
    head, hats = target_form(chain)
    return [area(c, head, (), hats) for c in chain.classes]


def test_outer_makes_source_areas_strict():
    assert concave_gap_areas(OMEGA1) == [F(2, 3), 0, F(2, 3), F(1, 3), 0]
    for d in (F(1, 12), F(1, 48)):
        out = outer_approximation(src_tree(), d)
        assert node_count(concave_weights(out)[1]) == 5
        areas = concave_gap_areas(out)
        assert all(a >= d for a in areas)


def test_inner_makes_side_areas_strict():
    assert convex_gap_areas(OMEGA2) == [1, 0, 2, 0]
    inner = inner_approximation(tgt_decomp(), F(1, 12))
    areas = convex_gap_areas(inner)
    assert areas[:3] == [1, F(1, 12), F(23, 12)]
    # with this delta pattern the cut diagonal is exactly covered again
    assert areas[3] == 0
    # a larger head drop leaves the diagonal visible: every sphere strict
    inner = inner_approximation(tgt_decomp(SQUARE),
                                [F(1, 8), F(1, 32), F(1, 32)])
    assert convex_gap_areas(inner) == [F(29, 32), F(1, 16), F(29, 32)]


# -- the Fraction reference ------------------------------------------------------
#
# The boundary approximations as they were written in Fractions before
# they moved onto integers over a common denominator: the same walk,
# cut and fold, but every interpolated point is a Fraction.  Kept here
# only as an oracle for the integer path.

def _clip_ref(bd, lam):
    below = sum(bd[0]) > lam
    for t, (x, y) in enumerate(bd):
        s = x + y
        if s == lam:
            return bd[:t + 1]
        if (s < lam) == below:
            px, py = bd[t - 1]
            theta = F(px + py - lam, px + py - s)
            return bd[:t] + [(px + (x - px) * theta, py + (y - py) * theta)]
    raise DomainError("cut level never reached along the boundary")


def _shear_cut_ref(bd, lam, m):
    ma, mb, mc, md, tx, ty = m
    left = right = None
    if sum(bd[0]) > lam:
        piece = [(x, x + y - lam) for x, y in _clip_ref(bd, lam)]
        left = piece, (ma - mb, mb, mc - md, md, tx + mb * lam, ty + md * lam)
    if sum(bd[-1]) > lam:
        piece = [(x + y - lam, y) for x, y in reversed(_clip_ref(bd[::-1], lam))]
        right = piece, (ma, mb - ma, mc, md - mc, tx + ma * lam, ty + mc * lam)
    return left, right


def _fold_ref(bd, lam):
    left = right = None
    if sum(bd[0]) < lam:
        left = [(lam - x - y, x) for x, y in reversed(_clip_ref(bd, lam))]
    if sum(bd[-1]) < lam:
        right = [(y, lam - x - y) for x, y in _clip_ref(bd[::-1], lam)]
    return left, right


def _grow_ref(shape, pts, ds):
    rows = shape.rows
    out, seams, stack = [], [], []
    cur = (0, pts, (1, 0, 0, 1, 0, 0))
    order = 0
    while stack or cur is not None:
        while cur is not None:
            idx, bd, m = cur
            lam = min(x + y for x, y in bd) + ds[order]
            order += 1
            left, right = _shear_cut_ref(bd, lam, m)
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
    for (ux, uy), (ax, ay), (bx, by) in zip(seams, out, out[1:]):
        if (bx - ax) * ux + (by - ay) * uy < 0:
            raise DomainError(
                "perturbation too large: child pieces overlap across a cut")
    return ToricDomain.concave(out)


def _outer_ref(dec, deltas):
    ds = list(deltas) if isinstance(deltas, list) else [deltas] * node_count(dec)
    return _grow_ref(dec, [(p.x, p.y) for p in dec.domain.boundary], ds)


def _inner_ref(decomp, deltas):
    n_left = node_count(decomp.left)
    total = 1 + n_left + node_count(decomp.right)
    ds = list(deltas) if isinstance(deltas, list) else [deltas] * total
    lam = decomp.head - ds[0]
    if lam <= 0:
        raise DomainError("perturbation swallows the whole head")
    lpiece, rpiece = _fold_ref([(p.x, p.y) for p in decomp.domain.boundary],
                               lam)
    if decomp.left is not None:
        if lpiece is None:
            raise DomainError(
                "perturbation too large: left piece reaches the y-axis")
        _check_concave(lpiece)
        grown = _grow_ref(decomp.left, lpiece, ds[1:1 + n_left])
        left_chain = [(p.y, lam - p.x - p.y) for p in reversed(grown.boundary)]
    else:
        left_chain = [(0, lam)]
    if decomp.right is not None:
        if rpiece is None:
            raise DomainError(
                "perturbation too large: right piece reaches the x-axis")
        _check_concave(rpiece)
        grown = _grow_ref(decomp.right, rpiece, ds[1 + n_left:])
        right_chain = [(lam - p.x - p.y, p.x) for p in reversed(grown.boundary)]
    else:
        right_chain = [(lam, 0)]
    if left_chain[-1][0] > right_chain[0][0]:
        raise DomainError(
            "perturbation too large: grown side pieces overlap")
    return ToricDomain.convex(left_chain + right_chain)


def _outcome(fn, arg, deltas):
    try:
        return boundary_of(fn(arg, deltas))
    except DomainError as exc:
        return str(exc)


_SCALARS = (F(0), F(1), F(1, 2), F(1, 12), F(1, 100), F(1, 1000))
_MIX = (F(0), F(1, 12), F(1, 100), F(1, 7), F(1, 2))


def _delta_sets(rng, count):
    """The scalar deltas of the golden cases and two per-row mixes."""
    yield from _SCALARS
    for _ in range(2):
        yield [rng.choice(_MIX) for _ in range(count)]


def _fib(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def test_outer_matches_the_fraction_reference():
    rng = random.Random(67)
    doms = [ToricDomain.ellipsoid(1, n) for n in (300, 400)]
    doms += [ToricDomain.ellipsoid(_fib(k), _fib(k + 1)) for k in range(2, 45)]
    doms += [random_concave(rng) for _ in range(30)]
    outcomes = set()
    for dom in doms:
        tree = src_tree(dom)
        for deltas in _delta_sets(rng, node_count(tree)):
            want = _outcome(_outer_ref, tree, deltas)
            assert _outcome(outer_approximation, tree, deltas) == want, \
                (dom, deltas)
            outcomes.add(type(want))
    # both boundaries and error messages were compared
    assert outcomes == {tuple, str}


def test_inner_matches_the_fraction_reference():
    rng = random.Random(71)
    doms = [ToricDomain.convex([(0, 1), (1, 1), (n, 0)]) for n in (300, 400)]
    doms += [random_convex(rng) for _ in range(30)]
    outcomes = set()
    for dom in doms:
        decomp = tgt_decomp(dom)
        total = 1 + node_count(decomp.left) + node_count(decomp.right)
        for deltas in _delta_sets(rng, total):
            want = _outcome(_inner_ref, decomp, deltas)
            assert _outcome(inner_approximation, decomp, deltas) == want, \
                (dom, deltas)
            outcomes.add(type(want))
    assert outcomes == {tuple, str}
    # every scalar delta fails on the thin targets; the preorder schedule
    # 10^-(i+1) grows their triangle flanks into boundaries
    for n in (4, 5, 10, 20, 60):
        decomp = tgt_decomp(ToricDomain.convex([(0, 1), (1, 1), (n, 0)]))
        total = 1 + node_count(decomp.left) + node_count(decomp.right)
        deltas = [F(1, 10 ** (i + 1)) for i in range(total)]
        want = _outcome(_inner_ref, decomp, deltas)
        assert isinstance(want, tuple), n
        assert _outcome(inner_approximation, decomp, deltas) == want, n


def test_triangle_pieces_grow_without_the_general_cut(monkeypatch):
    # a triangle piece's path of rows is grown in closed form: the
    # general cut runs only at pieces of three or more vertices
    import echtoric.blowups as blowups
    cuts = []
    shear_cut = blowups._shear_cut

    def counted(bd, lam, m):
        cuts.append(len(bd))
        return shear_cut(bd, lam, m)

    def refused(bd, lam, m):
        raise AssertionError("a triangle piece reached _shear_cut")

    monkeypatch.setattr(blowups, "_shear_cut", refused)
    doms = [ToricDomain.ellipsoid(1, 300)]
    doms += [ToricDomain.ellipsoid(_fib(k), _fib(k + 1)) for k in (5, 12, 30)]
    for dom in doms:
        tree = src_tree(dom)
        for deltas in (F(1, 12), F(1, 1000), [F(1, 7)] * node_count(tree)):
            assert _outcome(outer_approximation, tree, deltas) == \
                _outcome(_outer_ref, tree, deltas), (dom, deltas)
    monkeypatch.setattr(blowups, "_shear_cut", counted)
    # OMEGA1's root piece has four vertices, its four other pieces are
    # triangles
    for deltas in (0, F(1, 12), [F(1, 10), 0, 0, 0, 0]):
        cuts.clear()
        assert _outcome(outer_approximation, src_tree(), deltas) == \
            _outcome(_outer_ref, src_tree(), deltas)
        assert cuts == [4]
    # the root's left piece shrinks to a triangle above a row with two
    # children, so the closed form reports the vanished right part
    tree = src_tree(ToricDomain.concave([(0, "73/9"), (1, "10/9"),
                                         ("5/3", 0)]))
    assert tree.rows[1][2:] == [2, 7]
    cuts.clear()
    want = "perturbation too large: right part of a cut vanished"
    assert _outcome(outer_approximation, tree, F(1, 2)) == want
    assert _outcome(_outer_ref, tree, F(1, 2)) == want
    assert cuts == [3]


_BIG = 10 ** 90


@given(st.integers(1, _BIG), st.integers(1, _BIG),
       st.one_of(st.just(1), st.integers(2, _BIG)),
       st.integers(-_BIG, _BIG), st.integers(-_BIG, _BIG),
       st.integers(1, _BIG), st.integers(1, 10 ** 6))
@example(6, 10, 4, 12, -18, 30, 1)
@example(3, 7, 1, 0, 0, 21, 1)
def test_side_state_divides_by_the_whole_gcd(s, u, k, A, B, E, f):
    # the factored reduction of a grow step is the five-way gcd division
    # of the scaled state; f plants a common factor in every part
    s, u, A, B, E = (v * f for v in (s, u, A, B, E))
    if k > 1:
        k *= f
    state = (s * u, u * k, A * k, B * k, E * k) if k > 1 else (s, u, A, B, E)
    g = gcd(*state)
    assert _side_state(s, u, k, A, B, E) == tuple(v // g for v in state)


def test_long_outer_approximation_is_pinned():
    # E(1,1000) grows past the sizes the Fraction reference runs at; its
    # 1/12 outer approximation is pinned from the five-way gcd step
    out = outer_approximation(src_tree(ToricDomain.ellipsoid(1, 1000)),
                              F(1, 12))
    assert len(out.ints) == 1001
    assert hashlib.sha256(repr((out.D, out.ints)).encode()).hexdigest() == \
        "4e09f9f5f1a6c402146685f4d731eca54fd0c6804a302635d8a5606d0132a374"
