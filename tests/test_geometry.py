import random
from fractions import Fraction

import pytest

from echtoric import Point
from echtoric.errors import DomainError, GeometryError
from echtoric.geometry import cross, polygon_area, rational


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


def test_polygon_area_shoelace_hand_cases():
    square = [Point(0, 0), Point(0, 1), Point(1, 1), Point(1, 0)]
    assert polygon_area(square) == 1
    tri = [Point(0, 0), Point(0, 3), Point(4, 0)]
    assert polygon_area(tri) == 6


def test_polygon_area_random_triangulation_agrees():
    # area of a fan triangulation must match the shoelace value
    rng = random.Random(7)
    for _ in range(25):
        pts = [Point(0, 0)]
        x = Fraction(0)
        y = Fraction(rng.randint(3, 9))
        pts.append(Point(x, y))
        for _ in range(rng.randint(1, 3)):
            x += Fraction(rng.randint(1, 3), rng.randint(1, 2))
            y -= Fraction(rng.randint(1, 2), rng.randint(1, 3))
            pts.append(Point(x, y))
        total = Fraction(0)
        for a, b in zip(pts[1:], pts[2:]):
            total += abs(cross(a - pts[0], b - pts[0])) / 2
        assert polygon_area(pts) == total
