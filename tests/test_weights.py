import json
import random
from fractions import Fraction

import pytest

from echtoric import (DEFAULT_MAX_NODES, DomainError, LimitError,
                      ToricDomain, build_short_concave, concave_weights,
                      convex_weights, inorder, node_count, tree_values)
from echtoric.domains import _check_concave
from echtoric.weights import _fold, _shear_cut

from generators import random_concave, random_convex

OMEGA1 = ToricDomain.concave([("0", "10/3"), ("2/3", "4/3"),
                              ("4/3", "2/3"), ("7/3", "0")])
OMEGA2 = ToricDomain.convex([(0, 1), (1, 2), (5, 0)])
F = Fraction


def test_reference_concave_expansion():
    exp, tree = concave_weights(OMEGA1)
    assert exp.head is None
    assert exp.weights == (2, F(2, 3), F(2, 3), F(1, 3), F(1, 3))
    # cut levels left to right along the boundary
    assert tree_values(tree) == (F(2, 3), F(2, 3), 2, F(1, 3), F(1, 3))
    # the root row comes first, its level over the common denominator
    assert F(tree.rows[0][0], tree.D) == 2
    assert tree.domain is OMEGA1


def test_reference_convex_expansion():
    exp, decomp = convex_weights(OMEGA2)
    assert exp.head == 5
    assert exp.weights == (3, 2, 1)
    assert decomp.right is None
    assert tree_values(decomp.left) == (2, 3, 1)


def test_simplex_base_cases():
    exp, tree = concave_weights(ToricDomain.ball(1))
    assert exp.weights == (1,) and node_count(tree) == 1
    exp, decomp = convex_weights(ToricDomain.ball(7, kind="convex"))
    assert exp.head == 7 and exp.weights == ()
    assert decomp.left is None and decomp.right is None


def test_square_and_wide_triangle_agree():
    square = ToricDomain.convex([(0, 1), (1, 1), (1, 0)])
    tri = ToricDomain.convex([(0, 1), (2, 0)])
    se, _ = convex_weights(square)
    te, _ = convex_weights(tri)
    assert se.head == te.head == 2
    assert se.weights == te.weights == (1, 1)


def test_overhang_expansion():
    dom = ToricDomain.convex([(0, 2), (2, 2), (3, 1), (2, 0)])
    exp, _ = convex_weights(dom)
    assert exp.head == 4
    assert exp.weights == (2, 1, 1)


def test_ellipsoid_triangle_continued_fraction():
    # weights of E(p, q) follow the Euclidean algorithm on (p, q)
    exp, _ = concave_weights(ToricDomain.ellipsoid(3, 7))
    assert exp.weights == (3, 3, 1, 1, 1)
    exp, _ = concave_weights(ToricDomain.ellipsoid(2, 3))
    assert exp.weights == (2, 1, 1)


def test_area_identity_random_domains():
    rng = random.Random(41)
    for _ in range(30):
        dom = random_concave(rng)
        exp, _ = concave_weights(dom)
        # the expansion is over the domain's D, so the rule is in integers
        assert exp.D == dom.D
        assert sum(a * a for a in exp.sizes) == dom.twice_area()
    for _ in range(30):
        dom = random_convex(rng)
        exp, _ = convex_weights(dom)
        assert exp.D == dom.D
        assert exp.top ** 2 - sum(a * a for a in exp.sizes) == \
            dom.twice_area()


def test_scaling_equivariance_random():
    rng = random.Random(43)
    for _ in range(20):
        dom = random_concave(rng)
        lam = F(rng.randint(1, 7), rng.randint(1, 4))
        base, _ = concave_weights(dom)
        scaled, _ = concave_weights(dom.scale(lam))
        assert scaled.weights == tuple(lam * w for w in base.weights)
    for _ in range(20):
        dom = random_convex(rng)
        lam = F(rng.randint(1, 7), rng.randint(1, 4))
        base, _ = convex_weights(dom)
        scaled, _ = convex_weights(dom.scale(lam))
        assert scaled.head == lam * base.head
        assert scaled.weights == tuple(lam * w for w in base.weights)


def test_long_euclid_run_stays_iterative():
    dom = ToricDomain.ellipsoid(1, 5000)
    exp, tree = concave_weights(dom, DEFAULT_MAX_NODES)
    assert node_count(tree) == 5000
    assert set(exp.weights) == {1}
    assert sum(a * a for a in exp.sizes) == dom.twice_area()


def test_piece_check_matches_domain_rules():
    good = [(0, 5), (1, 2), (3, 0)]
    _check_concave(good)
    ToricDomain.concave(good)
    for bad in ([(1, 5), (3, 0)], [(0, 0), (3, 0)], [(0, 5), (3, 1)],
                [(0, 5), (0, 3), (3, 0)], [(0, 5), (2, 5), (3, 0)],
                [(0, 5), (2, 3), (3, 0)], [(0, 5), (2, 4), (3, 0)]):
        with pytest.raises(DomainError):
            _check_concave(bad)
        with pytest.raises(DomainError):
            ToricDomain.concave(bad)


def test_shear_cut_pieces_stay_concave():
    # _shear_cut checks no piece: cut at the minimum of x + y, as the
    # weight recursion does, or at a raised level, as the boundary
    # approximations do, a valid chain gives valid pieces.  The chains
    # are five times the boundary over its denominator, so the raised
    # levels low + (top - low) i/5 are integers too.
    rng = random.Random(53)
    identity = (1, 0, 0, 1, 0, 0)
    seen = [0, 0]
    for _ in range(40):
        work = [[(5 * x, 5 * y) for x, y in random_concave(rng).ints]]
        while work:
            bd = work.pop()
            low = min(x + y for x, y in bd)
            top = max(sum(bd[0]), sum(bd[-1]))
            levels = {x + y for x, y in bd if x + y < top}
            levels |= {low + (top - low) // 5 * i for i in range(5)}
            for lam in sorted(levels):
                for j, side in enumerate(_shear_cut(bd, lam, identity)):
                    if side is not None:
                        piece, _, k = side
                        assert all(type(v) is int for p in piece for v in p)
                        _check_concave(piece)
                        seen[j] += 1
                        if lam == low:
                            assert k == 1
                            work.append(piece)
    assert min(seen) > 100


def test_fold_flanks_stay_concave():
    # _fold checks no flank: folded at the head, as the weight recursion
    # does, or at a lowered head, as the inner approximations do, a
    # valid convex chain gives valid concave flanks.  The chains are five
    # times the boundary over its denominator, so the lowered levels
    # head - (head - low) i/5, down to the higher end low, are integers
    # too.
    rng = random.Random(59)
    doms = [random_convex(rng) for _ in range(400)]
    doms += [ToricDomain.convex([(0, 1), (1, 1), (n, 0)])
             for n in (4, 20, 300)]
    seen = [0, 0]
    for dom in doms:
        bd = [(5 * x, 5 * y) for x, y in dom.ints]
        head = max(x + y for x, y in bd)
        low = max(bd[0][1], bd[-1][0])
        levels = {x + y for x, y in bd if low < x + y}
        levels |= {head - (head - low) // 5 * i for i in range(5)}
        for lam in sorted(levels):
            for j, side in enumerate(_fold(bd, lam)):
                if side is not None:
                    flank, k = side
                    assert all(type(v) is int for p in flank for v in p)
                    _check_concave(flank)
                    seen[j] += 1
                    if lam == head:
                        assert k == 1
    assert min(seen) > 1000, seen


def test_row_maps_keep_the_cut_cone():
    # each row map is the identity times left shears (1 0; -1 1) and
    # right shears (1 -1; 0 1), which both keep the cone x > 0 > y: so
    # every cut line runs down-right along M (1, -1), which the overlap
    # check of the approximation walk relies on
    rng = random.Random(61)
    fib = [1, 1]
    while len(fib) < 40:
        fib.append(fib[-1] + fib[-2])
    doms = [random_concave(rng) for _ in range(200)]
    doms += [ToricDomain.ellipsoid(a, b) for a, b in zip(fib, fib[1:])]
    rows = 0
    for dom in doms:
        for _, (a, b, c, d, _, _), _, _ in concave_weights(dom)[1].rows:
            assert a - b > 0 > c - d
            rows += 1
    assert rows > 1000, rows


def _over(side, D):
    """A cut side's piece, or a fold's flank, as values: its
    coordinates are integers over D times its scale."""
    k = side[-1]
    return [(F(x, D * k), F(y, D * k)) for x, y in side[0]]


def test_shear_cut_and_fold_hand_cases():
    pts = [(0, 5), (1, 2), (3, 1), (6, 0)]  # x + y: 5, 3, 4, 6
    identity = (1, 0, 0, 1, 0, 0)
    # at the minimum the level sits on a vertex: scale 1, and each map
    # takes its piece back onto pts
    left, right = _shear_cut(pts, 3, identity)
    assert left == ([(0, 2), (1, 0)], (1, 0, -1, 1, 0, 3), 1)
    assert right == ([(0, 2), (1, 1), (3, 0)], (1, -1, 0, 1, 3, 0), 1)
    # the raised level 7/2 is 7 over twice pts; inside an edge each side
    # comes back times that edge's scale, with integer entries
    left, right = _shear_cut([(2 * x, 2 * y) for x, y in pts], 7, identity)
    assert left[2] == 4 and right[2] == 2
    assert _over(left, 2) == [(0, F(3, 2)), (F(3, 4), 0)]
    assert _over(right, 2) == [(0, F(3, 2)), (F(1, 2), 1), (F(5, 2), 0)]
    # the maps' translations are over the same denominators
    assert left[1] == (1, 0, -1, 1, 0, 28)
    assert right[1] == (1, -1, 0, 1, 14, 0)
    for side in (left, right):
        assert all(type(v) is int
                   for v in (*side[1], *(c for p in side[0] for c in p)))
    # a side whose end does not rise above the level has no piece; an
    # integer level inside an edge gives integers over the edge's scale
    left, right = _shear_cut([(0, 3), (1, 1), (4, 0)], 3, identity)
    assert left is None
    assert right == ([(0, 1), (2, 0)], (1, -1, 0, 1, 6, 0), 2)
    assert _over(right, 1) == [(0, F(1, 2)), (1, 0)]
    assert _shear_cut([(0, 2), (2, 0)], 2, identity) == (None, None)

    # the head fold puts each flank in concave position; a flank that
    # ends on the level has none
    chain = [(0, 1), (1, 2), (5, 0)]  # OMEGA2, x + y: 1, 3, 5
    assert _fold(chain, 5) == (([(0, 5), (2, 1), (4, 0)], 1), None)
    left, right = _fold(chain, 4)
    assert left == ([(0, 6), (2, 2), (6, 0)], 2) and right is None
    assert _over(left, 1) == [(0, 3), (1, 1), (3, 0)]
    # the lowered head 9/2 is 9 over twice the chain
    left, right = _fold([(2 * x, 2 * y) for x, y in chain], 9)
    assert right is None
    assert _over(left, 2) == [(0, 4), (F(3, 2), 1), (F(7, 2), 0)]
    assert _fold([(0, 2), (2, 2), (3, 1), (2, 0)], 4) == (
        ([(0, 2), (2, 0)], 1), ([(0, 2), (1, 0)], 1))
    assert _fold([(0, 2), (2, 0)], 2) == (None, None)


def test_node_budget_guard():
    with pytest.raises(LimitError):
        concave_weights(OMEGA1, max_nodes=3)
    with pytest.raises(LimitError):
        concave_weights(ToricDomain.ellipsoid(1, 50_000))


def test_kind_mismatch_rejected():
    with pytest.raises(DomainError, match="^concave_weights needs"):
        concave_weights(OMEGA2)
    with pytest.raises(DomainError, match="^convex_weights needs"):
        convex_weights(OMEGA1)


def test_build_short_concave_roundtrip():
    rng = random.Random(47)
    for _ in range(25):
        vals = sorted((F(rng.randint(1, 9), rng.randint(1, 4))
                       for _ in range(rng.randint(1, 6))), reverse=True)
        dom = build_short_concave(vals)
        exp, _ = concave_weights(dom)
        assert sorted(exp.weights, reverse=True) == vals
    with pytest.raises(DomainError):
        build_short_concave([1, 2])
    with pytest.raises(DomainError):
        build_short_concave([])


def test_weight_expansion_normalizes_order():
    from echtoric import WeightExpansion
    exp = WeightExpansion(3, None, (6, 2, 1))
    assert exp.head is None and exp.weights == (2, F(2, 3), F(1, 3))
    assert WeightExpansion(6, 10, (4,)).weights == (F(2, 3),)
    assert WeightExpansion(6, 10, (4,)).head == F(5, 3)
    # the kernel hands its levels over sorted; nothing re-sorts them
    for D, top, sizes in ((3, None, (1, 6, 2)), (1, None, (2, 0)),
                          (1, 3, (2, -1)), (0, None, (1,)),
                          (-3, None, (1,)), (1, 0, (1,))):
        with pytest.raises(DomainError):
            WeightExpansion(D, top, sizes)


def _node_rows(dec):
    """_tree_rows with the level and the translation as text."""
    return [[str(a), [*m[:4], str(m[4]), str(m[5])]]
            for a, m in _tree_rows(dec)]


def test_weights_golden(data_dir):
    # every node of every tree, recorded before the integer cut kernel:
    # the reference domains, E(1,N) for N <= 40, Fibonacci ellipsoids
    # E(F_k, F_k+1) for k <= 20, 20 random concave and 20 random convex
    # domains (five of them overhang).  Columns 1 and 2 of each row, and
    # of the head, hold where the cut met the boundary, which the trees
    # no longer keep; every other column is compared.
    golden = json.loads((data_dir / "weights_golden.json").read_text())
    assert len(golden) == 110

    def recorded(rows):
        return [[row[0], row[3]] for row in rows]

    for entry in golden:
        dom = ToricDomain.of(entry["type"], entry["boundary"])
        if dom.kind == "concave":
            exp, tree = concave_weights(dom)
            assert _node_rows(tree) == recorded(entry["nodes"]), entry["name"]
        else:
            exp, decomp = convex_weights(dom)
            assert str(decomp.head) == entry["head"][0], entry["name"]
            assert _node_rows(decomp.left) == recorded(entry["left"]), \
                entry["name"]
            assert _node_rows(decomp.right) == recorded(entry["right"]), \
                entry["name"]
        assert [str(w) for w in exp.weights] == entry["weights"], \
            entry["name"]


def _walk(pts, m, D):
    """In-order (value, map) of every cut, one _shear_cut at a time.

    The reference for the kernel: no closed form for triangles, just
    the cut at the minimum of x + y on each piece of the integer chain
    pts, whose levels and translations are divided by D at the end.
    """
    out, stack, cur = [], [], (pts, m)
    while stack or cur is not None:
        while cur is not None:
            bd, mp = cur
            a = min(x + y for x, y in bd)
            left, right = _shear_cut(bd, a, mp)
            assert all(side is None or side[2] == 1 for side in (left, right))
            stack.append((a, mp, right and right[:2]))
            cur = left and left[:2]
        a, mp, cur = stack.pop()
        out.append((a, mp))
    return [(F(a, D), (*mp[:4], F(mp[4], D), F(mp[5], D))) for a, mp in out]


def _tree_rows(dec):
    """In-order (level, map) of every row, each value over D."""
    out = []
    for i in inorder(dec):
        a, (ma, mb, mc, md, tx, ty), _, _ = dec.rows[i]
        out.append((F(a, dec.D), (ma, mb, mc, md, F(tx, dec.D),
                                  F(ty, dec.D))))
    return out


def _check_against_walk(dom):
    """Node for node equal to _walk; returns the node count with head."""
    D, pts = dom.D, dom.ints
    if dom.kind == "concave":
        tree = concave_weights(dom)[1]
        assert _tree_rows(tree) == _walk(pts, (1, 0, 0, 1, 0, 0), D), dom
        return node_count(tree)
    decomp = convex_weights(dom)[1]
    b = int(decomp.head * D)
    flanks = _fold(pts, b)
    for flank, back, side in zip(flanks, ((0, 1, -1, -1, 0, b),
                                          (-1, -1, 1, 0, b, 0)),
                                 (decomp.left, decomp.right)):
        assert (flank is None) == (side is None), dom
        if flank is not None:
            assert flank[1] == 1
            assert _tree_rows(side) == _walk(flank[0], back, D), dom
            assert side.domain is None
    return 1 + node_count(decomp.left) + node_count(decomp.right)


def test_euclid_runs_match_the_cut_walk():
    # triangles are expanded in closed form, with no _shear_cut
    for p in range(1, 41):
        for q in range(1, 41):
            for lam in (1, F(2, 3), F(7, 5)):
                _check_against_walk(ToricDomain.ellipsoid(p * lam, q * lam))


def _golden_and_generated(data_dir):
    golden = json.loads((data_dir / "weights_golden.json").read_text())
    doms = [ToricDomain.of(e["type"], e["boundary"]) for e in golden]
    rng = random.Random(59)
    doms += [random_concave(rng) for _ in range(100)]
    doms += [random_convex(rng) for _ in range(100)]
    return doms


def _check_rows(dec):
    """Each row's map has int entries and a determinant of +-1, with
    int level and translation; children follow their parent."""
    for i, (a, m, left, right) in enumerate(dec.rows):
        assert all(type(v) is int for v in (a, *m)), m
        ma, mb, mc, md = m[:4]
        assert ma * md - mb * mc in (1, -1), m
        assert all(c is None or i < c < len(dec.rows) for c in (left, right))


def test_kernel_matches_the_cut_walk_and_the_expansions(data_dir):
    doms = _golden_and_generated(data_dir)
    assert len(doms) == 310
    for dom in doms:
        _check_against_walk(dom)
        if dom.kind == "concave":
            exp, tree = concave_weights(dom)
            sides = [tree]
        else:
            exp, decomp = convex_weights(dom)
            assert exp.head == decomp.head
            sides = [s for s in (decomp.left, decomp.right) if s]
        values = ()
        for dec in sides:
            _check_rows(dec)
            values += tree_values(dec)
        assert exp.weights == tuple(sorted(values, reverse=True)), dom


def test_node_budget_is_exact(data_dir):
    # a whole Euclid run is charged at once, and still raises exactly
    # when one slot per node would
    doms = _golden_and_generated(data_dir)[::3]
    doms += [ToricDomain.ellipsoid(1, 300), ToricDomain.ellipsoid(21, 34),
             ToricDomain.convex([(0, 1), (1, 1), (40, 0)])]
    for dom in doms:
        n = _check_against_walk(dom)
        fn = concave_weights if dom.kind == "concave" else convex_weights
        fn(dom, n)
        with pytest.raises(LimitError):
            fn(dom, n - 1)
