import hashlib
import json
import random
from fractions import Fraction

import pytest

from echtoric import (DomainError, HomologyClass, SymplecticClass,
                      ToricDomain, c1, chain_classes_concave,
                      chain_classes_convex, concave_weights, contains,
                      convex_weights, inner_approximation, intersection,
                      node_count, outer_approximation, pairing,
                      sphere_chain_concave, sphere_chain_convex,
                      symplectic_class, tree_values)

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


def test_chain_pattern_invariants():
    rng = random.Random(5)
    chains = [sphere_chain_concave(src_tree(random_concave(rng)))
              for _ in range(15)]
    chains += [sphere_chain_convex(tgt_decomp(random_convex(rng)))
               for _ in range(15)]
    chains += [sphere_chain_concave(src_tree()),
               sphere_chain_convex(tgt_decomp())]
    for chain in chains:
        cs = chain.classes
        assert len(cs) == len(chain.weights)
        for i, a in enumerate(cs):
            assert intersection(a, a) <= -1
            assert c1(a) == intersection(a, a) + 2
            for j in range(i + 1, len(cs)):
                assert intersection(a, cs[j]) == (1 if j == i + 1 else 0)
        if chain.line_index is not None:
            for i, a in enumerate(cs):
                assert a.L == (1 if i == chain.line_index else 0)
            assert chain.weights[chain.line_index] == chain.head


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


# -- the form class and its areas ---------------------------------------------

def test_symplectic_class_reference():
    omega = symplectic_class(src_tree(), tgt_decomp(), 1)
    assert omega.ell == 5
    assert omega.e == (F(-2, 3), F(-2, 3), -2, F(-1, 3), F(-1, 3))
    assert omega.ehat == (-1, -3, -2)


def test_symplectic_class_simplices():
    omega = symplectic_class(src_tree(ToricDomain.ball(1)),
                             tgt_decomp(ToricDomain.ball(1, kind="convex")), 1)
    assert omega == SymplecticClass(1, (-1,), ())
    # a plain simplex target leaves only the source blowup terms
    omega = symplectic_class(src_tree(), tgt_decomp(
        ToricDomain.ball(7, kind="convex")), F(1, 2))
    assert omega.ell == 7 and omega.ehat == ()
    assert omega.e == tuple(-F(1, 2) * v for v in tree_values(src_tree()))


def test_symplectic_class_scale_behavior():
    base = symplectic_class(src_tree(), tgt_decomp(), 1)
    tiny = symplectic_class(src_tree(), tgt_decomp(), F(1, 1000))
    assert tiny.ell == base.ell and tiny.ehat == base.ehat
    assert tiny.e == tuple(F(1, 1000) * v for v in base.e)
    with pytest.raises(DomainError):
        symplectic_class(src_tree(), tgt_decomp(), 0)
    with pytest.raises(DomainError):
        symplectic_class(src_tree(), tgt_decomp(), -1)


def test_area_pairings_reference():
    omega = symplectic_class(src_tree(), tgt_decomp(), 1)
    src_areas = [pairing(omega, c)
                 for c in sphere_chain_concave(src_tree()).classes]
    tgt_areas = [pairing(omega, c)
                 for c in sphere_chain_convex(tgt_decomp()).classes]
    assert src_areas == [F(2, 3), 0, F(2, 3), F(1, 3), 0]
    assert tgt_areas == [1, 0, 2, 0]
    assert all(a >= 0 for a in src_areas + tgt_areas)


def test_area_pairings_nonnegative_random():
    rng = random.Random(17)
    for _ in range(20):
        tree = src_tree(random_concave(rng))
        decomp = tgt_decomp(random_convex(rng))
        omega = symplectic_class(tree, decomp, 1)
        for c in sphere_chain_concave(tree).classes:
            assert pairing(omega, c) >= 0
        for c in sphere_chain_convex(decomp).classes:
            assert pairing(omega, c) >= 0


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
        dom = ToricDomain(entry["type"],
                          tuple(tuple(p) for p in entry["domain"]))
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


# -- strict positivity under perturbation --------------------------------------

def concave_gap_areas(dom):
    exp, tree = concave_weights(dom)
    omega = SymplecticClass(0, tuple(-v for v in tree_values(tree)), ())
    return [pairing(omega, c) for c in sphere_chain_concave(tree).classes]


def convex_gap_areas(dom):
    exp, decomp = convex_weights(dom)
    ehat = tuple(-v for v in tree_values(decomp.left)[::-1]
                 + tree_values(decomp.right)[::-1])
    omega = SymplecticClass(decomp.head, (), ehat)
    return [pairing(omega, c) for c in sphere_chain_convex(decomp).classes]


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
