import json
import random
import sys
import threading
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

import pytest

from echtoric import (DomainError, LatticePath, Point, ToricDomain,
                      convex_caps, convex_weights, count_concave,
                      count_convex, ell_concave, ell_convex,
                      oracle_convex_cap, oracle_convex_caps_upto, split_path)
from echtoric import latticepaths
from echtoric.domains import _edge_zone
from echtoric.fileio import load_domain
from echtoric.latticepaths import _clockwise_directions
from echtoric.weights import _fold

from generators import cross, random_convex, random_convex_path

F = Fraction


# -- naive lattice point counting over the cut-off region -------------------

def _region_points(path):
    poly = [Point(0, 0)] + list(path.vertices) + [Point(0, 0)]
    xs = [int(p.x) for p in path.vertices]
    ys = [int(p.y) for p in path.vertices]
    pts = []
    for x in range(0, max(xs) + 1):
        for y in range(0, max(ys) + 1):
            p = Point(x, y)
            if all(cross(a, b, p) <= 0 for a, b in zip(poly, poly[1:])):
                pts.append(p)
    return pts


def _on_path(path, p):
    for a, b in zip(path.vertices, path.vertices[1:]):
        if cross(a, b, p) == 0 and 0 <= dot(a, b, p) <= dot(a, b, b):
            return True
    return p == path.vertices[0]


def dot(o, u, v):
    """The dot product of u - o and v - o."""
    return (u.x - o.x) * (v.x - o.x) + (u.y - o.y) * (v.y - o.y)


def test_path_validation():
    with pytest.raises(DomainError):
        LatticePath.convex([(0, F(1, 2)), (1, 0)])  # not a lattice point
    with pytest.raises(DomainError):
        LatticePath.convex([(1, 1), (2, 0)])  # starts off the y-axis
    with pytest.raises(DomainError):
        LatticePath.convex([(0, 1), (1, 1), (2, 2)])  # ends off the x-axis
    with pytest.raises(DomainError):
        LatticePath.convex([(0, 2), (1, 0), (2, 0), (2, 2), (3, 0)])
    with pytest.raises(DomainError):
        LatticePath.concave([(0, 2), (1, 2), (2, 0)])  # flat edge not allowed


def test_count_reference_values():
    empty = LatticePath.convex([(0, 0)])
    assert count_convex(empty) == 1
    diag = LatticePath.convex([(0, 1), (1, 0)])
    assert count_convex(diag) == 3
    assert count_concave(LatticePath.concave([(0, 1), (1, 0)])) == 1


def test_counts_against_enumeration():
    rng = random.Random(53)
    for _ in range(40):
        path = random_convex_path(rng)
        region = _region_points(path)
        assert count_convex(path) == len(region)
    for _ in range(40):
        path = random_convex_path(rng)
        try:
            cpath = LatticePath.concave(path.vertices)
        except DomainError:
            continue  # staircase had flat or vertical edges
        region = _region_points(cpath)
        off = [p for p in region if not _on_path(cpath, p)]
        assert count_concave(cpath) == len(off)


def test_ell_reference_values():
    square = ToricDomain.convex([(0, 1), (1, 1), (1, 0)])
    delta1 = ToricDomain.convex([(0, 1), (1, 0)])
    diag = LatticePath.convex([(0, 1), (1, 0)])
    assert ell_convex(square, diag) == 2
    assert ell_convex(delta1, diag) == 1
    assert ell_convex(square, LatticePath.convex([(0, 0)])) == 0
    cdiag = LatticePath.concave([(0, 1), (1, 0)])
    cdom = ToricDomain.ball(1)
    assert ell_concave(cdom, cdiag) == 1
    assert ell_concave(cdom, LatticePath.concave([(0, 2), (2, 0)])) == 2
    # cross((1, -1), p) is 2 at (0, 2) and 1 at (1, 0): the minimum counts
    assert ell_concave(ToricDomain.ellipsoid(1, 2), cdiag) == 1
    assert ell_concave(None, cdiag) == 0
    with pytest.raises(DomainError):
        ell_convex(ToricDomain.ball(1), diag)  # concave domain, wrong kind


def test_ell_subdivision_invariance():
    dom = ToricDomain.convex([(0, 2), (2, 2), (3, 1), (2, 0)])
    whole = LatticePath.convex([(0, 2), (2, 0)])
    split = LatticePath.convex([(0, 2), (1, 1), (2, 0)])
    assert ell_convex(dom, whole) == ell_convex(dom, split)


def test_split_path_reference_cases():
    sp = split_path(LatticePath.convex([(0, 1), (1, 0)]))
    assert sp.level == 1
    assert sp.head.vertices == (Point(0, 1), Point(1, 0))
    assert len(sp.left.vertices) == 1 and len(sp.right.vertices) == 1

    corner = LatticePath.convex([(0, 1), (1, 1), (1, 0)])
    sp = split_path(corner, level=2)
    assert sp.level == 2
    assert sp.left.vertices == (Point(0, 1), Point(1, 0))
    assert sp.right.vertices == (Point(0, 1), Point(1, 0))

    sp = split_path(LatticePath.convex([(0, 0)]))
    assert sp.level == 0
    assert len(sp.head.vertices) == 1

    # three vertices sit on the peak diagonal x + y = 3
    peak = LatticePath.convex([(0, 1), (1, 2), (2, 1), (3, 0)])
    sp = split_path(peak)
    assert sp.head.vertices == (Point(0, 3), Point(3, 0))
    assert sp.left.vertices == (Point(0, 1), Point(2, 0))
    assert sp.right.vertices == (Point(0, 0),)
    assert count_convex(sp.head) == (count_convex(peak)
                                     + count_concave(sp.left)
                                     + count_concave(sp.right))

    with pytest.raises(DomainError):
        split_path(corner, level=3)
    with pytest.raises(DomainError):
        split_path(LatticePath.concave([(0, 1), (1, 0)]))


def test_split_count_identity_random():
    rng = random.Random(59)
    for _ in range(60):
        path = random_convex_path(rng)
        sp = split_path(path)
        assert count_convex(sp.head) == (count_convex(path)
                                         + count_concave(sp.left)
                                         + count_concave(sp.right))


def test_split_ell_identity_random():
    rng = random.Random(61)
    for _ in range(40):
        dom = random_convex(rng)
        exp, decomp = convex_weights(dom)
        path = random_convex_path(rng)
        sp = split_path(path)
        head_dom = ToricDomain.convex([(0, decomp.head), (decomp.head, 0)])
        # the side pieces, folded as the weight recursion folds them: on
        # the boundary over its denominator D, at the head times D
        D = dom.D
        left, right = (
            None if flank is None else ToricDomain.concave(
                [(F(x, D), F(y, D)) for x, y in flank[0]])
            for flank in _fold(dom.ints, int(decomp.head * D)))
        lhs = ell_convex(dom, path)
        rhs = (ell_convex(head_dom, sp.head)
               - ell_concave(left, sp.left)
               - ell_concave(right, sp.right))
        assert lhs == rhs


def test_oracle_reference_values():
    delta1 = ToricDomain.convex([(0, 1), (1, 0)])
    square = ToricDomain.convex([(0, 1), (1, 1), (1, 0)])
    v0, w0 = oracle_convex_cap(square, 0)
    assert v0 == 0 and len(w0.vertices) == 1
    v1, w1 = oracle_convex_cap(delta1, 1)
    assert v1 == 1 and count_convex(w1) == 2 and ell_convex(delta1, w1) == 1
    v2, w2 = oracle_convex_cap(square, 2)
    assert v2 == 2 and count_convex(w2) == 3 and ell_convex(square, w2) == 2
    again = oracle_convex_cap(square, 2)
    assert again == (v2, w2)  # ties broken deterministically
    with pytest.raises(DomainError):
        oracle_convex_cap(ToricDomain.ball(1), 1)
    with pytest.raises(DomainError):
        oracle_convex_caps_upto(delta1, -1)


def test_oracle_agrees_with_formula_small_k():
    rng = random.Random(67)
    doms = [ToricDomain.convex([(0, 1), (1, 1), (1, 0)]),
            ToricDomain.convex([(0, 2), (2, 0)]),
            ToricDomain.convex([(0, 1), (2, 0)]),
            ToricDomain.convex([(0, 2), (2, 2), (3, 1), (2, 0)])]
    while len(doms) < 6:
        dom = random_convex(rng, max_edges=2)
        head = max(p.x + p.y for p in dom.boundary)
        if head <= 3:
            doms.append(dom)
    for dom in doms:
        K = 5
        seq = convex_caps(convex_weights(dom)[0], K)
        for k, (value, witness) in enumerate(oracle_convex_caps_upto(dom, K)):
            assert value == seq[k]
            assert count_convex(witness) == k + 1
            assert ell_convex(dom, witness) == value


def test_oracle_golden_reference_targets(data_dir):
    # exact values and witnesses; the witnesses pin the tie-breaking
    # that the caps --oracle report prints: the first least-value path
    # the search meets, not the least (value, vertices) pair.  The
    # kmax 20 golden was recorded before the search pruned on the
    # lattice points a prefix encloses
    for kmax in (6, 20):
        golden = json.loads(
            (data_dir / f"oracle_golden_k{kmax}.json").read_text())
        assert sorted(golden) == ["delta1", "delta2", "e12_convex", "omega2",
                                  "overhang", "square"]
        for name, expected in golden.items():
            dom = load_domain(data_dir / f"{name}.json")
            got = [[str(value), [list(p) for p in witness.ints]]
                   for value, witness in oracle_convex_caps_upto(dom, kmax)]
            assert got == expected, (name, kmax)


def test_oracle_golden_k12(data_dir):
    # values and witnesses recorded before the per-vertex step tables:
    # criterion 5's targets at k = 12 and 30 random convex targets at
    # k = 6
    golden = json.loads((data_dir / "oracle_golden_k12.json").read_text())
    assert len(golden) == 33
    for entry in golden:
        dom = ToricDomain.convex(entry["boundary"])
        got = [[str(value), [[int(p.x), int(p.y)] for p in witness.vertices]]
               for value, witness in oracle_convex_caps_upto(dom,
                                                             entry["kmax"])]
        assert got == entry["caps"], entry["name"]


def test_oracle_witness_is_not_the_least_vertex_tuple():
    # at a tie the search keeps the path it met first; in both cases a
    # lexicographically smaller path of the same value and count exists
    cases = [
        (ToricDomain.convex([(0, 1), (1, 1), (1, 0)]), 12, 6,
         [(0, 0), (1, 3), (3, 3), (3, 0)], [(0, 0), (1, 2), (4, 2), (4, 0)]),
        (ToricDomain.convex([(0, F(3, 4)), (F(1, 2), F(1, 2)), (F(1, 4), 0)]),
         4, F(3, 2),
         [(0, 2), (1, 2), (1, 1), (0, 0)], [(0, 2), (1, 1), (1, 0)]),
    ]
    for dom, k, value, witness, least in cases:
        got, path = oracle_convex_caps_upto(dom, k)[k]
        assert got == value
        assert [(int(p.x), int(p.y)) for p in path.vertices] == witness
        assert least < witness
        other = LatticePath.convex(least)
        assert count_convex(other) == k + 1 and ell_convex(dom, other) == value


def _clockwise_cmp(u, v):
    zu, zv = _edge_zone(*u), _edge_zone(*v)
    if zu != zv:
        return -1 if zu < zv else 1
    c = u[0] * v[1] - u[1] * v[0]
    return -1 if c < 0 else (1 if c > 0 else 0)


def test_clockwise_directions_every_box():
    for box in range(1, 25):
        dirs = _clockwise_directions(box)
        # primitive, inside the box, and pointing into a convex sector
        expected = [(dx, dy) for dx in range(-box, box + 1)
                    for dy in range(-box, box + 1)
                    if gcd(dx, dy) == 1 and (dx > 0 or dy < 0)]
        assert len(dirs) == len(set(dirs)) == len(expected)
        assert set(dirs) == set(expected)
        assert dirs == sorted(expected, key=cmp_to_key(_clockwise_cmp))
        seed = [d for d in dirs if max(abs(d[0]), abs(d[1])) <= 3]
        assert seed == _clockwise_directions(min(box, 3))


# -- the search without a completion bound ----------------------------------
#
# _search as it was before it pruned on ell + y X: the same walk, step
# tables and tie order, pruning on the functional so far alone.  Kept
# here only as an oracle for the bounded search, which must put the
# same paths before consider in the same order and so return the same
# values and witnesses.

def _supports(verts, dirs):
    return [max(dx * py - dy * px for px, py in verts) for dx, dy in dirs]


def _search_ref(verts, geo, sup, initial=None):
    # only the pass's parameters are read: the directions, turn ends and
    # step tables are built here, not taken from the shared geometry
    kmax, box = geo.kmax, geo.box
    dirs = _clockwise_directions(geo.reach)
    sup_i = _supports(verts, dirs)
    assert all(s > 0 for s in sup_i)
    # the oracle hands both passes of a box one table to fill in, indexed
    # by the full pass's directions, 0 where the support is not computed
    # yet
    assert all(s in (0, t) for s, t in
               zip(sup, _supports(verts, _clockwise_directions(box))))
    n = len(dirs)
    lim = 2 * kmax
    fan_max = 2 * lim
    # turn_end[i]: the first index after i whose direction lies more
    # than 180 degrees clockwise of direction i; so does every later
    # one.  turn_end[-1] = n leaves the first step free.
    turn_end = []
    j = 0
    for i, (pdx, pdy) in enumerate(dirs):
        j = max(j, i + 1)
        while j < n and pdx * dirs[j][1] - pdy * dirs[j][0] <= 0:
            j += 1
        turn_end.append(j)
    turn_end.append(n)
    # vertex -> (direction indices, rows (index, dx, dy, support, fan))
    # of the steps the walk can take from it, in clockwise order
    steps_at = {}

    best = [None] * (kmax + 1) if initial is None else list(initial)

    # suff[j] = worst incumbent over slots >= j, None while one is open;
    # a partial path with p points on it can only ever land in slots
    # >= p - 1, so reaching suff[p - 1] with its value already there
    # means no strict improvement can come out of it
    suff = [None] * (kmax + 2)
    dirty = [True]

    def pruned(value, kmin):
        if kmin > kmax:
            return True
        if dirty[0]:
            run = -1
            for j in range(kmax, -1, -1):
                b = best[j]
                if b is None or run is None:
                    run = None
                elif b[0] > run:
                    run = b[0]
                suff[j] = run
            dirty[0] = False
        bound = suff[kmin]
        return bound is not None and value >= bound

    def consider(path, twice_area, ell, steps):
        # boundary of the closed cycle: both axis legs plus the path
        # edges, whose primitive steps were counted with multiplicity
        boundary = path[0][1] + path[-1][0] + steps
        assert (twice_area + boundary) % 2 == 0
        k = (twice_area + boundary) // 2
        if k > kmax:
            return
        cand = (ell, tuple(path))
        if best[k] is None or cand < best[k]:
            best[k] = cand
            dirty[0] = True

    def walk(path, onpath, last_dir, signed2, ell, steps):
        cx, cy = path[-1]
        if cy == 0:
            consider(path, abs(signed2), ell, steps)
            # fall through: an axis run may still extend to the right
        base_kmin = len(onpath) - 1
        here = steps_at.get((cx, cy))
        if here is None:
            table = [(di, dx, dy, sup_i[di], cx * dy - cy * dx)
                     for di, (dx, dy) in enumerate(dirs)
                     if 0 <= cx + dx <= box and 0 <= cy + dy <= box
                     and -fan_max <= cx * dy - cy * dx <= fan_max]
            here = steps_at[cx, cy] = ([row[0] for row in table], table)
        keys, table = here
        lo = bisect_right(keys, last_dir)
        hi = bisect_left(keys, turn_end[last_dir], lo)
        for di, ddx, ddy, step_ell, fan in table[lo:hi]:
            nx, ny = cx, cy
            m = 0
            added = []
            while True:
                m += 1
                nx += ddx
                ny += ddy
                if nx < 0 or ny < 0 or nx > box or ny > box:
                    break
                s2 = signed2 + fan * m
                if not -lim <= s2 <= lim:
                    break
                e = ell + step_ell * m
                if pruned(e, base_kmin):
                    break
                # the path now runs through every point of this edge;
                # added remembers which of them were new to it
                if (nx, ny) not in onpath:
                    onpath.add((nx, ny))
                    added.append((nx, ny))
                if pruned(e, len(onpath) - 1):
                    break
                path.append((nx, ny))
                walk(path, onpath, di, s2, e, steps + m)
                path.pop()
            if added:
                onpath.difference_update(added)

    for y0 in range(kmax + 1):
        onpath = {(0, t) for t in range(y0 + 1)}
        walk([(0, y0)], onpath, -1, 0, 0, 0)
    return best

def _thin_targets():
    for n in (2, 3, 5, 8, 13):
        yield ToricDomain.convex([(0, 1), (1, 1), (n, 0)])
        yield ToricDomain.convex([(0, n), (1, 1), (1, 0)])
    # overhangs: wider than their x-intercept X, so a bound that took the
    # width for X would drop optimal paths that end back under the top
    for n in (2, F(5, 2), 3, 5):
        yield ToricDomain.convex([(0, n), (1, 1), (F(1, 2), 0)])


def _caps_and_witnesses(dom, kmax):
    return [(value, tuple((int(p.x), int(p.y)) for p in witness.vertices))
            for value, witness in oracle_convex_caps_upto(dom, kmax)]


class _Writes(list):
    """A support table that counts the writes to each entry."""

    def __init__(self, sup):
        super().__init__(sup)
        self.writes = [0] * len(sup)

    def __setitem__(self, i, value):
        self.writes[i] += 1
        super().__setitem__(i, value)


def test_bounded_search_matches_the_unbounded_reference(monkeypatch):
    search = latticepaths._search
    computed, reused, offered = [], [], []

    def checked(verts, geo, sup, initial=None):
        # both passes of a box fill one table, indexed by the full
        # pass's directions, with the reference's supports, each when a
        # walk first takes its direction: so no support is computed
        # twice in a box round, and the full pass computes none of those
        # the seeding pass filled
        dirs = _clockwise_directions(geo.box)
        assert len(sup) == len(dirs)
        filled = [i for i, s in enumerate(sup) if s]
        assert geo.reach == geo.box or not filled
        counted = _Writes(sup)
        best = search(verts, geo, counted, initial)
        sup[:] = counted
        assert all(s in (0, t) for s, t in zip(sup, _supports(verts, dirs)))
        assert max(counted.writes) <= 1
        assert not any(counted.writes[i] for i in filled)
        computed.append(sum(counted.writes))
        reused.append(len(filled))
        offered.append(len(sup))
        return best

    rng = random.Random(73)
    doms = [random_convex(rng) for _ in range(30)] + list(_thin_targets())
    for dom in doms:
        for kmax in (3, 5, 7):
            # once right after the memo is cleared, once on the memo
            # that first search built
            with monkeypatch.context() as patch:
                patch.setattr(latticepaths, "_search", checked)
                latticepaths._passes.cache_clear()
                cold = _caps_and_witnesses(dom, kmax)
                warm = _caps_and_witnesses(dom, kmax)
            with monkeypatch.context() as patch:
                patch.setattr(latticepaths, "_search", _search_ref)
                want = _caps_and_witnesses(dom, kmax)
            assert cold == warm == want, (dom.boundary, kmax)
    # every pass computes some supports, the full passes read some the
    # seeding passes computed, and not all supports are computed
    assert min(computed) > 0 and sum(reused) > 0
    assert sum(computed) < sum(offered) / 2


def _lattice_points(path):
    """The lattice points of path and of its y-axis leg, enumerated."""
    pts = {(0, t) for t in range(path[0][1] + 1)}
    for (px, py), (qx, qy) in zip(path, path[1:]):
        n = gcd(qx - px, qy - py)
        pts.update((px + (qx - px) // n * i, py + (qy - py) // n * i)
                   for i in range(n + 1))
    return pts


def _fan(path):
    """Twice the signed area of the fan of path from the origin, and
    its boundary points on the y-axis leg and the path."""
    edges = list(zip(path, path[1:]))
    return (sum(px * qy - py * qx for (px, py), (qx, qy) in edges),
            path[0][1] + sum(gcd(qx - px, qy - py)
                             for (px, py), (qx, qy) in edges))


def _entry(geo, path, d, m):
    """(ny, c2 // 2, kmin) of the prefix m steps along d from path, from
    scratch, or None if some edge length up to m breaks the geometry."""
    (cx, cy), (dx, dy) = path[-1], d
    lim = 2 * geo.kmax
    for j in range(1, m + 1):
        x, y = cx + j * dx, cy + j * dy
        longer = path + ((x, y),)
        s2, rim = _fan(longer)
        c2 = abs(s2) + rim + gcd(x, y)
        kmin = len(_lattice_points(longer)) - 1
        if not (0 <= x <= geo.box and 0 <= y <= geo.box and abs(s2) <= lim
                and c2 <= lim and kmin <= geo.kmax):
            return None
    return (y, c2 // 2, kmin)


def _check_memo(geo):
    """Check every node of the pass's memo against its path alone, and
    return how many there are."""
    dirs = _clockwise_directions(geo.reach)
    kmax, lim = geo.kmax, 2 * geo.kmax

    def turn_end(i):
        # the first direction more than 180 degrees on; the first step
        # is free
        return next((j for j in range(i + 1, len(dirs))
                     if i >= 0
                     and dirs[i][0] * dirs[j][1] > dirs[i][1] * dirs[j][0]),
                    len(dirs))

    assert [root[3] for root in geo.roots] == [((0, y0),)
                                               for y0 in range(kmax + 1)]
    stack = [(root, -1) for root in geo.roots]
    seen = 0
    while stack:
        node, last = stack.pop()
        seen += 1
        ny, half, kmin, path, slot, s2, rim, rows, runs = node
        (cx, cy), (fan_s2, fan_rim) = path[-1], _fan(path)
        assert (ny, kmin, s2, rim) == (cy, len(_lattice_points(path)) - 1,
                                       fan_s2, fan_rim)
        if cy == 0:
            points = count_convex(LatticePath("convex", path)) - 1
            assert slot == (points if points <= kmax else None)
        else:
            assert slot is None
        # the directions within the turn whose first step keeps to the
        # box, the area, the fan count and kmax, and nothing else
        within = [di for di in range(last + 1, turn_end(last))
                  if 0 <= cx + dirs[di][0] <= geo.box
                  and 0 <= cy + dirs[di][1] <= geo.box
                  and abs(s2 + cx * dirs[di][1] - cy * dirs[di][0]) <= lim
                  and _entry(geo, path, dirs[di], 1)]
        assert [row[0] for row in rows] == within
        for (di, dx, dy, fan), entries in zip(rows, runs):
            assert (dx, dy) == dirs[di] and fan == cx * dy - cy * dx
            if isinstance(entries, tuple):  # its first entry alone
                entries = [entries, None]
            grown = entries[:-1] if entries[-1] is None else entries
            assert grown and None not in grown
            for m, entry in enumerate(grown, 1):
                assert entry[:3] == _entry(geo, path, (dx, dy), m)
                if len(entry) > 3:
                    assert entry[3] == path + ((cx + m * dx, cy + m * dy),)
                    stack.append((entry, di))
            # a run ends only where the geometry breaks
            if grown is entries:
                assert _entry(geo, path, (dx, dy), len(entries) + 1) is None
    return seen


def test_shared_search_geometry_holds_no_domain_data(data_dir, monkeypatch):
    # the memo of a (kmax, box) serves every domain searched with it; a
    # support, value or incumbent left in it would carry one domain's
    # search into the next, so a warm memo met in reverse order must
    # give what a cold one gave, and every node must be its path's
    # geometry alone
    golden = json.loads((data_dir / "oracle_golden_k6.json").read_text())
    targets = [(load_domain(data_dir / f"{name}.json"), 6, caps)
               for name, caps in sorted(golden.items())]
    targets += [(ToricDomain.convex(entry["boundary"]), entry["kmax"],
                 entry["caps"])
                for entry in json.loads(
                    (data_dir / "oracle_golden_k12.json").read_text())]
    assert len(targets) == 6 + 33
    passes = {}
    search = latticepaths._search

    def recorded(verts, geo, sup, initial=None):
        passes[id(geo)] = geo
        return search(verts, geo, sup, initial)
    monkeypatch.setattr(latticepaths, "_search", recorded)

    def caps(dom, kmax):
        return [[str(value), [list(p) for p in witness.ints]]
                for value, witness in oracle_convex_caps_upto(dom, kmax)]

    memo = latticepaths._passes
    memo.cache_clear()
    cold = [caps(dom, kmax) for dom, kmax, _ in targets]
    built = memo.cache_info().misses
    warm = [caps(dom, kmax) for dom, kmax, _ in reversed(targets)]
    # the second round builds no geometry: it runs on the first's
    assert memo.cache_info().hits > 0 and memo.cache_info().misses == built
    assert cold == warm[::-1] == [expected for _, _, expected in targets]
    nodes = 0
    for geo in passes.values():
        dirs = _clockwise_directions(geo.reach)
        assert geo.dirs == tuple(dirs)
        # the support table of both passes is the full pass's
        full = _clockwise_directions(geo.box)
        assert [full[i] for i in geo.sup_index] == dirs
        for (cx, cy), (keys, rows) in geo.tables.items():
            # a row is the step and its fan, with no value of a domain
            steps = [(di, *dirs[di]) for di in keys]
            assert rows == [(di, dx, dy, cx * dy - cy * dx)
                            for di, dx, dy in steps]
        assert _check_memo(geo) <= geo.size
        nodes += geo.size
    assert nodes > 1000


def test_memo_budget_drops_and_rebuilds(data_dir, monkeypatch):
    # a pass about to make more prefix nodes than _NODES_KEPT drops its
    # memo and builds it again as walks go on: the values and witnesses
    # stay, and no pass keeps more nodes than the budget
    budget = 300
    monkeypatch.setattr(latticepaths, "_NODES_KEPT", budget)
    drops = []
    drop = latticepaths._Pass.drop

    def counted(geo):
        drops.append(geo)
        drop(geo)
    monkeypatch.setattr(latticepaths._Pass, "drop", counted)
    latticepaths._passes.cache_clear()
    golden = json.loads((data_dir / "oracle_golden_k12.json").read_text())
    for entry in golden:
        dom = ToricDomain.convex(entry["boundary"])
        got = [[str(value), [list(p) for p in witness.ints]]
               for value, witness in oracle_convex_caps_upto(dom,
                                                             entry["kmax"])]
        assert got == entry["caps"], entry["name"]
        assert all(geo.size <= budget for geo in drops)
    # each pass drops once as it is built; some dropped again
    assert len(drops) > len(set(drops))
    assert all(_check_memo(geo) <= budget for geo in set(drops))
    latticepaths._passes.cache_clear()


def test_threads_share_the_memo(data_dir):
    # walks grow the memo in place: searches from more threads than
    # cores, switching as often as the interpreter allows, must still
    # give the goldens and leave a memo of geometry alone
    golden = json.loads((data_dir / "oracle_golden_k6.json").read_text())
    targets = [(load_domain(data_dir / f"{name}.json"), caps)
               for name, caps in sorted(golden.items())]
    latticepaths._passes.cache_clear()
    agree, errors = [], []

    def search(i):
        try:
            for j in range(len(targets)):
                dom, caps = targets[(i + j) % len(targets)]
                agree.append(caps == [
                    [str(value), [list(p) for p in witness.ints]]
                    for value, witness in oracle_convex_caps_upto(dom, 6)])
        except Exception as exc:  # raised in a worker, reported below
            errors.append(exc)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=search, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and agree == [True] * 4 * len(targets)
    for geo in latticepaths._passes(6, 14):
        _check_memo(geo)


def test_a_search_waits_for_the_walk_growing_the_memo(data_dir, monkeypatch):
    # a first search paused halfway through growing a run must find the
    # memo as it left it: a second search of the same pass waits for it
    dom = load_domain(data_dir / "square.json")
    latticepaths._passes.cache_clear()
    want = _caps_and_witnesses(dom, 8)
    latticepaths._passes.cache_clear()
    grow, paused, resume = latticepaths._Pass.grow, threading.Event(), \
        threading.Event()

    def pausing(geo, *args):
        # a second edge length is only ever grown by a walk
        if (threading.current_thread() is first and args[-1] > 1
                and not paused.is_set()):
            paused.set()
            resume.wait(timeout=10)
        return grow(geo, *args)
    monkeypatch.setattr(latticepaths._Pass, "grow", pausing)
    got = {}
    first, second = (threading.Thread(
        target=lambda name=name: got.setdefault(
            name, _caps_and_witnesses(dom, 8))) for name in ("first", "second"))
    first.start()
    assert paused.wait(timeout=10)
    second.start()
    second.join(timeout=0.3)
    waited = second.is_alive()
    resume.set()
    first.join(timeout=10)
    second.join(timeout=10)
    assert waited and not first.is_alive() and not second.is_alive()
    assert got == {"first": want, "second": want}
    for geo in latticepaths._passes(8, 18):
        _check_memo(geo)
