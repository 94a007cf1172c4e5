import random
import re
from fractions import Fraction
from xml.dom import minidom

from echtoric import (ToricDomain, concave_weights, convex_weights,
                      decomposition_polygons, outer_approximation,
                      render_approximation, render_decomposition)
from echtoric.geometry import cross

from generators import random_concave, random_convex

OMEGA1 = ToricDomain.concave([("0", "10/3"), ("2/3", "4/3"),
                              ("4/3", "2/3"), ("7/3", "0")])
OMEGA2 = ToricDomain.convex([(0, 1), (1, 2), (5, 0)])
F = Fraction


def polygons(dom):
    """decomposition_polygons of the tree that expanding dom gives."""
    expand = concave_weights if dom.kind == "concave" else convex_weights
    return decomposition_polygons(expand(dom)[1])


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
    return abs(cross(b - a, c - a)) / 2


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
        text = render_decomposition(dom, polygons(dom))
        doc = minidom.parseString(text)
        polys = doc.getElementsByTagName("polygon")
        assert len(polys) == len(polygons(dom))
        assert doc.documentElement.tagName == "svg"


def test_svg_deterministic():
    assert render_decomposition(OMEGA1, polygons(OMEGA1)) == \
        render_decomposition(OMEGA1, polygons(OMEGA1))
    out = outer_approximation(concave_weights(OMEGA1)[1], F(1, 12))
    a = render_approximation(OMEGA1, out)
    assert a == render_approximation(OMEGA1, out)
    doc = minidom.parseString(a)
    assert len(doc.getElementsByTagName("polygon")) == 2


def test_coordinates_are_plain_decimals():
    doc = minidom.parseString(render_decomposition(OMEGA1, polygons(OMEGA1)))
    coord = re.compile(r"^\d+\.\d{4},\d+\.\d{4}$")
    for node in doc.getElementsByTagName("polygon"):
        for pair in node.getAttribute("points").split():
            assert coord.match(pair), pair
