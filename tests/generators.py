"""Seeded random inputs shared by the property and acceptance tests.

Everything takes an explicit random.Random so failures reproduce from
the seed alone.  cross is the plain Fraction cross product that the
reference computations in the tests share.
"""

from __future__ import annotations

import random
from fractions import Fraction

from echtoric import LatticePath, PackingInstance, ToricDomain


def cross(o, a, b):
    """The cross product of a - o and b - o, for Points a, b and o."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


_SLOPES = sorted({Fraction(-num, den)
                  for num in range(1, 8) for den in range(1, 5)})


def random_concave(rng: random.Random, max_edges: int = 4) -> ToricDomain:
    """Edges of strictly increasing negative slope, rational lengths."""
    n = rng.randint(1, max_edges)
    slopes = sorted(rng.sample(_SLOPES, n))
    runs = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(n)]
    y = -sum(s * dx for s, dx in zip(slopes, runs))
    x = Fraction(0)
    boundary = [(x, y)]
    for s, dx in zip(slopes, runs):
        x += dx
        y += s * dx
        boundary.append((x, y))
    return ToricDomain.concave(boundary)


def random_convex(rng: random.Random, max_edges: int = 4) -> ToricDomain:
    """Strictly clockwise boundary, sometimes with a flat top or overhang."""
    n = rng.randint(1, max_edges)
    slopes = sorted(rng.sample(_SLOPES, n), reverse=True)
    runs = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(n)]
    drop = -sum(s * dx for s, dx in zip(slopes, runs))
    overhang = rng.random() < 0.25
    flat_top = rng.random() < 0.25
    h = Fraction(rng.randint(1, 3), rng.randint(1, 2)) if overhang else Fraction(0)
    y = drop + h
    x = Fraction(0)
    boundary = [(x, y)]
    if flat_top:
        x += Fraction(rng.randint(1, 3), rng.randint(1, 2))
        boundary.append((x, y))
    for s, dx in zip(slopes, runs):
        x += dx
        y += s * dx
        boundary.append((x, y))
    if overhang:
        # descend leftwards back to the axis; keep the endpoint inside
        u = min(Fraction(rng.randint(1, 2), rng.randint(1, 2)), x / 2)
        boundary.append((x - u, Fraction(0)))
    return ToricDomain.convex(boundary)


def random_convex_path(rng: random.Random, max_edges: int = 4) -> LatticePath:
    """Down-right staircase path with clockwise-sorted primitive edges."""
    prims = sorted({(dx, dy)
                    for dx in range(0, 4) for dy in range(-3, 1)
                    if (dx, dy) != (0, 0) and not (dx > 0 and dy > 0)},
                   key=lambda d: Fraction(d[1], d[0]) if d[0] else Fraction(-10 ** 9),
                   reverse=True)
    # primitive directions only, multiplicity via repeated steps
    from math import gcd
    prims = [d for d in prims if gcd(abs(d[0]), abs(d[1])) == 1]
    n = rng.randint(1, max_edges)
    chosen = sorted(rng.sample(prims, n),
                    key=lambda d: Fraction(d[1], d[0]) if d[0] else Fraction(-10 ** 9),
                    reverse=True)
    mults = [rng.randint(1, 2) for _ in range(n)]
    rise = -sum(m * d[1] for m, d in zip(mults, chosen))
    x, y = 0, rise
    vertices = [(x, y)]
    for m, d in zip(mults, chosen):
        x += m * d[0]
        y += m * d[1]
        vertices.append((x, y))
    return LatticePath("convex", vertices)


def random_instance(rng: random.Random, max_balls: int = 8) -> PackingInstance:
    target = Fraction(rng.randint(2, 8), rng.randint(1, 2))
    n = rng.randint(1, max_balls)
    balls = [min(Fraction(rng.randint(1, 10), rng.randint(1, 4)), target)
             for _ in range(n)]
    return PackingInstance.of(target, balls)
