import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from echtoric import AffineUnimodularMap, Point
from echtoric.errors import DomainError, GeometryError
from echtoric.geometry import cross, polygon_area, rational

UNITS = [(1, 0, 0, 1), (0, -1, 1, 0), (1, 1, 0, 1), (2, 1, 1, 1),
         (1, 0, 1, 1), (0, 1, 1, 0), (-1, -1, 1, 0), (3, 2, 1, 1)]

unimodular = st.builds(
    lambda m, tx, ty: AffineUnimodularMap(*m, Point(tx, ty)),
    st.sampled_from(UNITS),
    st.integers(-5, 5), st.integers(-5, 5))

points = st.builds(Point, st.integers(-7, 7), st.integers(-7, 7))


def test_rational_accepts_exact_types_only():
    assert rational(3) == 3
    assert rational(Fraction(2, 3)) == Fraction(2, 3)
    assert rational("7/2") == Fraction(7, 2)
    assert rational("2/3") == Fraction(2, 3)
    assert rational("-7/2") == Fraction(-7, 2)
    assert rational("10") == 10
    # the one grammar is -?\d+(/\d+)?, matched in full; a GeometryError
    # is a DomainError, which the file reader and the CLI report
    for bad in ("1.5", "1e-3", " 3", "+3", "3\n", "2 / 3", "a/b", "1/0",
                "", "2/3/4", 0.5, 1.5, True, None):
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


def test_non_unimodular_matrix_rejected():
    with pytest.raises(GeometryError):
        AffineUnimodularMap(2, 0, 0, 1, Point(0, 0))
    with pytest.raises(GeometryError):
        AffineUnimodularMap(1, 1, 1, 1, Point(0, 0))


@given(unimodular, points)
def test_inverse_roundtrip(m, p):
    assert m.inverse().apply(m.apply(p)) == p
    assert m.compose(m.inverse()).apply(p) == p


@given(unimodular, unimodular, points)
def test_compose_is_application_order(m1, m2, p):
    assert m1.compose(m2).apply(p) == m1.apply(m2.apply(p))


@given(unimodular)
def test_determinant_stable_under_inverse(m):
    assert m.det() in (1, -1)
    assert m.inverse().det() == m.det()


@given(unimodular, points, points)
def test_linear_part_preserves_cross_up_to_det(m, u, v):
    assert cross(m.apply_linear(u), m.apply_linear(v)) == m.det() * cross(u, v)


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
