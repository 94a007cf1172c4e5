import random
from fractions import Fraction

import pytest

from echtoric import Point
from echtoric.errors import DomainError, GeometryError
from echtoric.geometry import ratio, rational

from generators import cross, random_concave, random_convex


def test_rational_accepts_exact_types_only():
    assert rational(3) == 3
    assert rational(Fraction(2, 3)) == Fraction(2, 3)
    assert rational("7/2") == Fraction(7, 2)
    assert rational("2/3") == Fraction(2, 3)
    assert rational("-7/2") == Fraction(-7, 2)
    assert rational("10") == 10
    # the one grammar is -?[0-9]+(/[0-9]+)?, matched in full, so other
    # Unicode digits are refused; a GeometryError is a DomainError,
    # which the file reader and the CLI report
    for bad in ("1.5", "1e-3", " 3", "+3", "3\n", "2 / 3", "a/b", "1/0",
                "", "2/3/4", "\u0663", "\uff13/\uff14", 0.5, 1.5, True,
                None):
        for parse in (ratio, rational):
            with pytest.raises(GeometryError):
                parse(bad)
    assert issubclass(GeometryError, DomainError)
    # ratio keeps text as written; rational reduces it
    assert ratio("2/4") == (2, 4) and rational("2/4") == Fraction(1, 2)
    assert ratio("-06") == (-6, 1) and ratio(-6) == (-6, 1)
    assert ratio(Fraction(-2, 4)) == (-1, 2)


def test_polygon_area_random_triangulation_agrees():
    # the integer shoelace of ToricDomain.area against a fan of Fraction
    # triangles from the origin, which sees every boundary point
    O = Point(0, 0)
    rng = random.Random(7)
    for _ in range(25):
        for dom in (random_concave(rng), random_convex(rng)):
            pts = dom.boundary
            total = sum((abs(cross(O, a, b)) / 2
                         for a, b in zip(pts, pts[1:])), Fraction(0))
            assert dom.area() == total
