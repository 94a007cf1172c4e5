import random
import re
from fractions import Fraction
from math import lcm
from xml.dom import minidom

from hypothesis import given, strategies as st

from echtoric import (ToricDomain, concave_weights, convex_weights,
                      decomposition_polygons, outer_approximation,
                      render_approximation, render_decomposition)
from echtoric.geometry import Point
from echtoric.svgout import MARGIN, SIZE, _Canvas

from generators import cross, random_concave, random_convex

OMEGA1 = ToricDomain.concave([("0", "10/3"), ("2/3", "4/3"),
                              ("4/3", "2/3"), ("7/3", "0")])
OMEGA2 = ToricDomain.convex([(0, 1), (1, 2), (5, 0)])
F = Fraction


def tree(dom):
    """The decomposition that expanding dom gives."""
    expand = concave_weights if dom.kind == "concave" else convex_weights
    return expand(dom)[1]


def polygons(dom):
    return decomposition_polygons(tree(dom))


def test_polygon_counts():
    # concave: one triangle per weight; convex: the head simplex on top
    assert len(polygons(OMEGA1)) == 5
    assert len(polygons(OMEGA2)) == 4
    rng = random.Random(3)
    for _ in range(10):
        dom = random_concave(rng)
        n = len(concave_weights(dom)[0].weights)
        assert len(polygons(dom)) == n
        dom = random_convex(rng)
        n = len(convex_weights(dom)[0].weights)
        assert len(polygons(dom)) == n + 1


def tri_area(tri):
    a, b, c = tri
    return abs(cross(a, b, c)) / 2


def test_triangles_tile_the_region():
    # areas of the pieces add up to the region's area
    for dom in (OMEGA1, ToricDomain.ellipsoid(1, 200)):
        polys = polygons(dom)
        assert sum(tri_area(t) for t in polys) == dom.area()
    polys = polygons(OMEGA2)
    rest = sum(tri_area(t) for t in polys[1:])
    assert tri_area(polys[0]) - rest == OMEGA2.area()


def test_svg_well_formed_and_counts():
    for dom in (OMEGA1, OMEGA2):
        text = render_decomposition(dom, tree(dom))
        doc = minidom.parseString(text)
        polys = doc.getElementsByTagName("polygon")
        assert len(polys) == len(polygons(dom))
        assert doc.documentElement.tagName == "svg"


def test_svg_deterministic():
    assert render_decomposition(OMEGA1, tree(OMEGA1)) == \
        render_decomposition(OMEGA1, tree(OMEGA1))
    out = outer_approximation(concave_weights(OMEGA1)[1], F(1, 12))
    a = render_approximation(OMEGA1, out)
    assert a == render_approximation(OMEGA1, out)
    doc = minidom.parseString(a)
    assert len(doc.getElementsByTagName("polygon")) == 2


def test_coordinates_are_plain_decimals():
    doc = minidom.parseString(render_decomposition(OMEGA1, tree(OMEGA1)))
    coord = re.compile(r"^\d+\.\d{4},\d+\.\d{4}$")
    for node in doc.getElementsByTagName("polygon"):
        for pair in node.getAttribute("points").split():
            assert coord.match(pair), pair


def _fraction_map(points):
    """Canvas strings by the exact Fraction formula, as a reference:
    MARGIN + (x - xmin) * scale rounded half up to four decimals."""
    xs = [p.x for p in points] + [F(0)]
    ys = [p.y for p in points] + [F(0)]
    xmin, ymin = min(xs), min(ys)
    span = max(max(xs) - xmin, max(ys) - ymin, F(1))
    scale = F(SIZE - 2 * MARGIN) / span

    def quant(v):
        q = v * 10000
        i = (2 * q.numerator + q.denominator) // (2 * q.denominator)
        return f"{i // 10000}.{i % 10000:04d}"

    return [(quant(MARGIN + (p.x - xmin) * scale),
             quant(SIZE - MARGIN - (p.y - ymin) * scale)) for p in points]


def _integer_map(points):
    # the canvas takes integer pairs over one common denominator
    D = lcm(*(v.denominator for p in points for v in (p.x, p.y)))
    ints = [(p.x.numerator * (D // p.x.denominator),
             p.y.numerator * (D // p.y.denominator)) for p in points]
    at = _Canvas(ints, D).texts(ints)
    return [tuple(at[p].split(",")) for p in ints]


def test_canvas_quantisation_matches_fraction_formula():
    rng = random.Random(5)
    for trial in range(60):
        # denominators up to 1e90, as on long approximations
        den_digits = rng.choice((1, 3, 20, 90))
        points = []
        for _ in range(rng.randint(1, 12)):
            d = rng.randint(1, 10 ** den_digits)
            points.append(Point(F(rng.randint(-d, 40 * d), d),
                                F(rng.randint(-d, 40 * d), d)))
        assert _integer_map(points) == _fraction_map(points)


def test_canvas_quantisation_ties_round_half_up():
    # span 552 at xmin = ymin = 0 makes the scale 1: x = k/20000 for odd
    # k lands exactly on a tie at 0.00005
    corner = Point(552, 552)
    tie = Point(F(1, 20000), F(1, 20000))
    assert _integer_map([corner, tie])[1] == ("24.0001", "576.0000")
    ties = [Point(F(k, 20000), F(k + 2, 20000)) for k in range(1, 400, 2)]
    assert _integer_map([corner] + ties) == _fraction_map([corner] + ties)
    # a span below 1 takes the floor of 1, so the scale is 552
    small = [Point(F(k, 552 * 20000), F(k + 6, 552 * 20000))
             for k in range(1, 2000, 2)]
    assert max(p.x for p in small) < F(1, 2)
    assert _integer_map(small) == _fraction_map(small)
    assert _integer_map([Point(F(1, 3), F(1, 7))]) == \
        _fraction_map([Point(F(1, 3), F(1, 7))])


def _per_corner(dom):
    """The polygons, outline and axes of dom's decomposition drawing,
    each corner put on the canvas on its own by the Fraction formula."""
    tris = polygons(dom)
    outline = [Point(0, 0), *dom.boundary]
    corners = [p for tri in tris for p in tri]
    xmax, ymax = max(p.x for p in corners), max(p.y for p in corners)
    ends = [Point(xmax, 0), Point(0, ymax)]
    texts = [",".join(pair) for pair in _fraction_map(outline + corners + ends)]
    at = dict(zip(outline + corners + ends, texts))
    return ([" ".join(at[p] for p in tri) for tri in tris],
            " ".join(at[p] for p in outline),
            [at[p].split(",") for p in (Point(0, 0), *ends)])


@given(st.integers(0, 2 ** 32), st.booleans())
def test_decomposition_drawing_matches_a_per_corner_rendering(seed, concave):
    # each distinct canvas value is quantised once; the drawing is the
    # one that maps every corner of every triangle by itself
    rng = random.Random(seed)
    dom = random_concave(rng) if concave else random_convex(rng)
    want_polys, want_outline, (o, x, y) = _per_corner(dom)
    doc = minidom.parseString(render_decomposition(dom, tree(dom)))
    assert [node.getAttribute("points")
            for node in doc.getElementsByTagName("polygon")] == want_polys
    [line] = doc.getElementsByTagName("polyline")
    assert line.getAttribute("points") == want_outline
    assert [[node.getAttribute(a) for a in ("x1", "y1", "x2", "y2")]
            for node in doc.getElementsByTagName("line")] == [o + x, o + y]
