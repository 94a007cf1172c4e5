import random
from fractions import Fraction

import pytest

from echtoric import Point
from echtoric.errors import DomainError, GeometryError
from echtoric.geometry import cross, rational

from generators import random_concave, random_convex


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
        with pytest.raises(GeometryError):
            rational(bad)
    assert issubclass(GeometryError, DomainError)


def test_point_arithmetic():
    p = Point(1, 2)
    q = Point("1/2", 3)
    assert p + q == Point(Fraction(3, 2), 5)
    assert p - q == Point(Fraction(1, 2), -1)
    assert p.scale(Fraction(1, 3)) == Point(Fraction(1, 3), Fraction(2, 3))


def test_cross_orientation():
    assert cross(Point(1, 0), Point(0, 1)) == 1
    assert cross(Point(0, 1), Point(1, 0)) == -1
    assert cross(Point(2, 3), Point(4, 6)) == 0


def test_polygon_area_random_triangulation_agrees():
    # the integer shoelace of ToricDomain.area against a fan of Fraction
    # triangles from the origin, which sees every boundary point
    rng = random.Random(7)
    for _ in range(25):
        for dom in (random_concave(rng), random_convex(rng)):
            pts = dom.boundary
            total = sum((abs(cross(a, b)) / 2 for a, b in zip(pts, pts[1:])),
                        Fraction(0))
            assert dom.area() == total
