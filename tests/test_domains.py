import json
import random
from fractions import Fraction
from itertools import chain

import pytest

from echtoric import (DomainError, LatticePath, Point, ToricDomain,
                      concave_weights, contains, convex_weights,
                      domain_from_json, domain_to_json, inner_approximation,
                      load_domain, oracle_convex_caps_upto,
                      outer_approximation)

from generators import cross, random_concave, random_convex
from test_svg_golden import DATA, golden_domains

OMEGA1 = [("0", "10/3"), ("2/3", "4/3"), ("4/3", "2/3"), ("7/3", "0")]
OMEGA2 = [(0, 1), (1, 2), (5, 0)]


# -- reference geometry on Points -------------------------------------------
#
# Region, upper envelope and point membership in Fractions, on the
# Point view: the reference that contains is checked against.

def region_polygon(dom):
    return (Point(0, 0),) + dom.boundary


def upper_envelope(dom):
    """The graph of x -> max{y : (x, y) in the region}: all of a concave
    boundary, a convex one up to its first vertex of maximal x."""
    xs = [p.x for p in dom.boundary]
    end = len(xs) if dom.kind == "concave" else xs.index(max(xs)) + 1
    return dom.boundary[:end]


def envelope_value(dom, x):
    env = upper_envelope(dom)
    for p, q in zip(env, env[1:]):
        if p.x <= x <= q.x:
            return p.y + (q.y - p.y) * (x - p.x) / (q.x - p.x)
    assert x == env[-1].x
    return env[-1].y


def contains_point(dom, p):
    pt = Point(*p)
    if pt.x < 0 or pt.y < 0:
        return False
    if dom.kind == "concave":
        return pt.x <= dom.xmax() and pt.y <= envelope_value(dom, pt.x)
    poly = region_polygon(dom)
    return all(cross(a, b, pt) <= 0
               for a, b in zip(poly, poly[1:] + poly[:1]))


def test_concave_accepts_reference_boundary():
    dom = ToricDomain.concave(OMEGA1)
    assert dom.kind == "concave"
    assert dom.boundary[0] == Point(0, Fraction(10, 3))


def test_convex_accepts_reference_boundary():
    dom = ToricDomain.convex(OMEGA2)
    assert dom.boundary[-1] == Point(5, 0)


def test_concave_rejects_decreasing_slopes():
    with pytest.raises(DomainError):
        ToricDomain.concave([(0, 1), (1, 1), (1, 0)])


def test_concave_rejects_up_edge():
    with pytest.raises(DomainError):
        ToricDomain.concave([(0, 2), (1, 3), (2, 0)])


def test_convex_rejects_counterclockwise_turn():
    with pytest.raises(DomainError):
        ToricDomain.convex([(0, 2), (1, 1), (3, 1), (4, 0)])


def test_boundary_must_join_the_axes():
    with pytest.raises(DomainError):
        ToricDomain.concave([(1, 2), (2, 0)])
    with pytest.raises(DomainError):
        ToricDomain.concave([(0, 2), (2, 1)])
    with pytest.raises(DomainError):
        ToricDomain.convex([(0, 0), (1, 0)])


def test_collinear_boundary_points_are_merged():
    dom = ToricDomain.concave([(0, 2), (1, 1), (Fraction(3, 2), Fraction(1, 2)),
                               (2, 0)])
    assert dom.boundary == (Point(0, 2), Point(2, 0))


def test_collinear_fold_back_is_rejected():
    # a run that turns back along its own line is not merged away
    with pytest.raises(DomainError):
        ToricDomain.concave([(0, 2), (1, 1), (Fraction(1, 2), Fraction(3, 2)),
                             (2, 0)])
    with pytest.raises(DomainError):
        ToricDomain.convex([(0, 2), (2, 2), (1, 2), (3, 0)])


def test_area_reference_values():
    assert ToricDomain.concave(OMEGA1).area() == Fraction(23, 9)
    assert ToricDomain.convex(OMEGA2).area() == Fraction(11, 2)
    assert ToricDomain.ball(1).area() == Fraction(1, 2)
    assert ToricDomain.ellipsoid(2, 3, kind="convex").area() == 3


def test_overhang_region_and_envelope():
    dom = ToricDomain.convex([(0, 2), (2, 2), (3, 1), (2, 0)])
    assert dom.xmax() == 3
    env = upper_envelope(dom)
    assert env[-1] == Point(3, 1)
    assert envelope_value(dom, Fraction(5, 2)) == Fraction(3, 2)
    assert contains_point(dom, (Fraction(5, 2), 1))
    assert not contains_point(dom, (Fraction(5, 2), 2))


def test_scale_properties_random():
    rng = random.Random(11)
    for _ in range(40):
        dom = random_concave(rng) if rng.random() < 0.5 else random_convex(rng)
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        scaled = dom.scale(lam)
        assert scaled.kind == dom.kind
        assert scaled.area() == lam * lam * dom.area()
    with pytest.raises(DomainError):
        dom.scale(0)


def test_scale_identity():
    dom = ToricDomain.concave(OMEGA1)
    assert dom.scale(1) == dom


def test_contains_nested_scalings():
    rng = random.Random(23)
    for _ in range(25):
        dom = random_concave(rng) if rng.random() < 0.5 else random_convex(rng)
        smaller = dom.scale(Fraction(2, 3))
        assert contains(dom, smaller)
        assert not contains(smaller, dom)
        assert contains(dom, dom)


def test_contains_uses_region_not_bounding_box():
    tall = ToricDomain.concave([(0, 3), (1, 0)])
    wide = ToricDomain.concave([(0, 1), (3, 0)])
    assert not contains(tall, wide)
    assert not contains(wide, tall)
    both = ToricDomain.convex([(0, 3), (1, 3), (3, 1), (3, 0)])
    assert contains(both, tall)
    assert contains(both, wide)


def _contains_reference(outer, inner):
    """contains by brute force: outer's membership test per vertex of
    inner, or both envelopes evaluated by a scan at every breakpoint."""
    if outer.kind == "convex":
        return all(contains_point(outer, (p.x, p.y))
                   for p in region_polygon(inner))
    if inner.xmax() > outer.xmax():
        return False
    env = upper_envelope(inner)
    xs = {p.x for p in env}
    xs.update(p.x for p in outer.boundary if p.x <= env[-1].x)
    return all(envelope_value(inner, x) <= envelope_value(outer, x)
               for x in xs)


def _both_ways(a, b):
    for outer, inner in ((a, b), (b, a)):
        assert contains(outer, inner) == _contains_reference(outer, inner), \
            (outer, inner)


def test_contains_matches_reference_on_random_pairs():
    rng = random.Random(41)
    doms = [random_concave(rng) if i % 2 else random_convex(rng)
            for i in range(60)]
    verdicts = set()
    for _ in range(200):
        a, b = rng.choice(doms), rng.choice(doms)
        _both_ways(a, b)
        verdicts.add(contains(a, b))
    assert verdicts == {True, False}
    for dom in doms:
        assert contains(dom, dom) and _contains_reference(dom, dom)
    # a concave outer against convex inners, scaled to nest or nearly
    for _ in range(100):
        outer, inner = random_concave(rng, 6), random_convex(rng, 6)
        lam = min(outer.xmax() / inner.xmax(), outer.ymax() / inner.ymax())
        for f in (Fraction(1, 2), Fraction(99, 100), 1, Fraction(101, 100)):
            _both_ways(outer, inner.scale(lam * f))


def test_contains_matches_reference_at_touching_envelopes():
    ball = ToricDomain.ball(2)
    cases = [
        # equal xmax, below and above
        ToricDomain.concave([(0, 1), (2, 0)]),
        ToricDomain.concave([(0, 3), ("1/2", "1/2"), (2, 0)]),
        ToricDomain.convex([(0, 1), (1, 1), (2, 0)]),
        # a crossing at an inner breakpoint between the outer ones
        ToricDomain.convex([(0, 1), (1, "3/2"), ("3/2", 0)]),
        ToricDomain.convex([(0, 1), (1, 1), ("3/2", 0)]),
        ToricDomain.convex([(0, 1), (1, 1 + Fraction(1, 10 ** 90)), ("3/2", 0)]),
    ]
    expected = [True, False, True, False, True, False]
    for inner, want in zip(cases, expected):
        assert contains(ball, inner) == want == _contains_reference(ball, inner)
        _both_ways(ball, inner)
    # outer breakpoints strictly between the inner ones; at eps = 0 the
    # envelopes touch at x = 2 only
    outer = ToricDomain.concave([(0, 4), (1, 2), (2, 1), (4, 0)])
    tiny = Fraction(1, 10 ** 40)
    for eps, want in ((0, True), (tiny, False), (-tiny, True)):
        inner = ToricDomain.concave([(0, 2 + eps), (4, 0)])
        assert contains(outer, inner) == want
        _both_ways(outer, inner)


def test_contains_matches_reference_on_approximations():
    # approximations at 1/12 nearly touch their sources
    for dom in golden_domains().values():
        if dom.kind == "concave":
            approx = outer_approximation(concave_weights(dom)[1],
                                         Fraction(1, 12))
            assert contains(approx, dom)
        else:
            try:
                approx = inner_approximation(convex_weights(dom)[1],
                                             Fraction(1, 12))
            except DomainError:
                continue
            assert contains(dom, approx)
        _both_ways(approx, dom)


def _message(kind, points):
    with pytest.raises(DomainError) as exc:
        ToricDomain.of(kind, points)
    return str(exc.value)


def test_every_validation_message_with_mixed_denominators():
    F = Fraction
    P = Point
    assert _message("concave", [(0, F(1, 3))]) == \
        "boundary needs at least two vertices"
    assert _message("star", [(0, 1), (1, 0)]) == "unknown domain kind 'star'"
    for kind in ("concave", "convex"):
        assert _message(kind, [(F(1, 7), F(5, 3)), (F(9, 4), 0)]) == \
            "boundary must start on the positive y-axis, got " \
            f"{P(F(1, 7), F(5, 3))}"
        assert _message(kind, [(0, F(-5, 3)), (F(9, 4), 0)]) == \
            "boundary must start on the positive y-axis, got " \
            f"{P(0, F(-5, 3))}"
        assert _message(kind, [(0, F(5, 3)), (F(9, 4), F(1, 11))]) == \
            "boundary must end on the positive x-axis, got " \
            f"{P(F(9, 4), F(1, 11))}"
        assert _message(kind, [(0, F(5, 3)), (F(-9, 4), 0)]) == \
            "boundary must end on the positive x-axis, got " \
            f"{P(F(-9, 4), 0)}"
        assert _message(kind, [(0, F(5, 3)), (F(1, 6), 0), (F(9, 4), 0)]) \
            == f"interior boundary vertex {P(F(1, 6), 0)} touches an axis"
    assert _message("concave", [(0, F(5, 3)), (F(1, 2), F(7, 4)),
                                (F(9, 4), 0)]) == \
        "concave boundary edges must go strictly down-right"
    assert _message("concave", [(0, F(5, 3)), (F(1, 2), F(1, 4)),
                                (F(3, 2), F(1, 7)), (F(9, 4), 0)]) == \
        "concave boundary slopes must strictly increase"
    # (1/2, 3/2) -> (1/3, 2) points up-left, with the Fractions printed
    assert _message("convex", [(0, 1), (F(1, 2), F(3, 2)), (F(1, 3), 2),
                               (2, 0)]) == \
        "boundary edge (-1/6, 1/2) points out of the allowed sectors"
    assert _message("convex", [(0, 1), (F(1, 2), F(1, 3)), (1, F(1, 2)),
                               (2, 0)]) == \
        "convex boundary direction must rotate clockwise"
    assert _message("convex", [(0, 1), (F(1, 2), F(4, 3)), (1, 2),
                               (2, 0)]) == \
        "convex boundary must turn strictly clockwise"
    # _check_concave on its own, on Fraction pairs and on the same chain
    # over its common denominator
    from echtoric.domains import _check_concave
    for chain, message in (
            ([(F(1, 3), 1), (F(5, 2), 0)],
             "boundary must start on the positive y-axis"),
            ([(0, F(1, 3)), (F(5, 2), F(1, 7))],
             "boundary must end on the positive x-axis"),
            ([(0, F(1, 3)), (F(1, 5), F(1, 2)), (F(5, 2), 0)],
             "concave boundary edges must go strictly down-right"),
            ([(0, F(7, 3)), (F(1, 5), F(1, 2)), (2, F(1, 3)),
              (F(5, 2), 0)], "concave boundary slopes must strictly increase")):
        D = 210
        for pts in (chain, [(int(x * D), int(y * D)) for x, y in chain]):
            with pytest.raises(DomainError) as exc:
                _check_concave(pts)
            assert str(exc.value) == message


def test_collapse_keeps_the_canonical_tuple():
    F = Fraction
    # repeats and collinear runs over mixed denominators merge into the
    # same Points as the plain boundary, so the domains are equal
    dom = ToricDomain.concave([(0, 2), (0, 2), (F(1, 3), F(5, 3)),
                               (F(1, 2), F(3, 2)), (F(1, 2), F(3, 2)),
                               (2, 0)])
    assert dom.boundary == (Point(0, 2), Point(2, 0))
    assert dom == ToricDomain.ball(2) and hash(dom) == hash(ToricDomain.ball(2))
    # the merged vertices needed the denominator 6; what is kept needs 1
    assert (dom.D, dom.ints) == (1, ((0, 2), (2, 0)))
    dom = ToricDomain.convex([(0, 1), (F(1, 7), 1), (F(5, 9), 1), (1, 1),
                              (1, F(1, 11)), (1, 0)])
    assert dom.boundary == (Point(0, 1), Point(1, 1), Point(1, 0))
    assert dom == ToricDomain.convex([(0, 1), (1, 1), (1, 0)])
    assert (dom.D, dom.ints) == (1, ((0, 1), (1, 1), (1, 0)))
    # a kept vertex keeps its denominator
    dom = ToricDomain.concave([(0, 3), (F(1, 4), F(5, 2)), (F(1, 2), 2),
                               (F(3, 2), F(1, 3)), (F(5, 2), 0)])
    assert dom.boundary == (Point(0, 3), Point(F(1, 2), 2),
                            Point(F(3, 2), F(1, 3)), Point(F(5, 2), 0))
    assert dom.D == 6
    assert all((F(x, dom.D), F(y, dom.D)) == (p.x, p.y)
               for (x, y), p in zip(dom.ints, dom.boundary))


def _approximations():
    """Every approximation that approx_golden.json records."""
    for entry in json.loads((DATA / "approx_golden.json").read_text()):
        if "error" in entry:
            continue
        dom = ToricDomain.of(entry["type"], entry["domain"])
        deltas = entry["deltas"]
        deltas = ([Fraction(d) for d in deltas] if isinstance(deltas, list)
                  else Fraction(deltas))
        if entry["op"] == "outer":
            yield outer_approximation(concave_weights(dom)[1], deltas)
        else:
            yield inner_approximation(convex_weights(dom)[1], deltas)


def _oracle_targets():
    """The oracle goldens' targets with their largest index."""
    for name in json.loads((DATA / "oracle_golden_k6.json").read_text()):
        yield load_domain(DATA / f"{name}.json"), 6
    for entry in json.loads((DATA / "oracle_golden_k12.json").read_text()):
        yield ToricDomain.convex(entry["boundary"]), entry["kmax"]


def test_integer_form_and_area_on_random_domains():
    rng = random.Random(29)
    generated = [random_concave(rng) if rng.random() < 0.5
                 else random_convex(rng) for _ in range(60)]
    for dom in generated:
        assert all((Fraction(x, dom.D), Fraction(y, dom.D)) == (p.x, p.y)
                   for (x, y), p in zip(dom.ints, dom.boundary))
        # the area is the shoelace sum over the region polygon's Points
        poly = region_polygon(dom)
        twice = sum(p.x * q.y - p.y * q.x
                    for p, q in zip(poly, poly[1:] + poly[:1]))
        assert dom.area() == abs(twice) / 2
    # the integer constructors give what the rational one gives from
    # the Points: on every domain file, every recorded approximation
    # and the generated domains
    count = 0
    for dom in chain(golden_domains().values(), _approximations(),
                     generated):
        again = ToricDomain.of(dom.kind, dom.boundary)
        assert again == dom and hash(again) == hash(dom)
        assert domain_from_json(domain_to_json(dom)) == dom
        for t in (Fraction(1, 3), Fraction(7, 2), Fraction(10 ** 9, 7)):
            assert dom.scale(t) == ToricDomain.of(
                dom.kind, [(t * p.x, t * p.y) for p in dom.boundary])
        count += 1
    assert count == 639  # 15 domains, 564 approximations, 60 generated
    for dom, kmax in _oracle_targets():
        for _, path in oracle_convex_caps_upto(dom, kmax):
            assert LatticePath.of(path.kind, path.vertices) == path
