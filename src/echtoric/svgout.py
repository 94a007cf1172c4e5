"""Plain SVG 1.1 renderings of decompositions and approximations.

Every drawing runs on integers over one common denominator D.  A
decomposition is drawn from the rows that concave_weights or
convex_weights returned, so drawing never expands a domain again.
render_decomposition(domain, tree) writes each triangle straight from
its integer row: the level a and the map (ma, mb, mc, md, tx, ty) give
the corners (tx, ty), (mb a + tx, md a + ty) and (ma a + tx, mc a + ty),
each over D, and a convex domain's head, top over D, adds (0, 0),
(0, top) and (top, 0).  The rows and the domain's boundary are over
the domain's D, so no corner is rescaled and none becomes a Fraction;
decomposition_polygons is the Point view of the same triangles.  An
approximation overlay takes both boundaries over the common multiple
of their denominators.
Documents are built by string assembly, no markup library.  Each
drawing fixes its canvas map once, as integers (P, Q, R) per axis, and
then quantises each distinct coordinate n/D once, to four decimals,
rounded half up, as (P + Q n) // R, so the output bytes depend only on
the input.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Collection, Iterable, Optional, Union

from .domains import ToricDomain
from .geometry import Point
from .weights import ConvexDecomposition, Decomposition, inorder

_PALETTE = (
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1",
    "#76b7b2", "#edc948", "#ff9da7", "#9c755f", "#bab0ac",
)
_HEAD_FILL = "#d9d9d9"

SIZE = 600
MARGIN = 24


IntPolygon = tuple[tuple[int, int], ...]
Tree = Union[Decomposition, ConvexDecomposition]


def _triangles(dec: Optional[Decomposition]) -> list[IntPolygon]:
    """Each row's images of (0, 0), (0, a) and (a, 0), in in-order."""
    if dec is None:
        return []
    rows = dec.rows
    polys = []
    for idx in inorder(dec):
        a, (ma, mb, mc, md, tx, ty), _, _ = rows[idx]
        polys.append(((tx, ty), (mb * a + tx, md * a + ty),
                      (ma * a + tx, mc * a + ty)))
    return polys


def _tiles(tree: Tree) -> tuple[int, list[IntPolygon]]:
    """D and one triangle per weight over D; a convex domain's head
    simplex comes first."""
    if isinstance(tree, Decomposition):
        return tree.D, _triangles(tree)
    b = tree.top
    return tree.domain.D, [((0, 0), (0, b), (b, 0)), *_triangles(tree.left),
                           *_triangles(tree.right)]


def decomposition_polygons(tree: Tree) -> list[tuple[Point, ...]]:
    """One triangle of Points per weight, a convex domain's head simplex
    first."""
    D, tiles = _tiles(tree)
    return [tuple(Point(Fraction(x, D), Fraction(y, D)) for x, y in tile)
            for tile in tiles]


class _Canvas:
    """Maps integer points over D onto a square canvas, y axis pointing up.

    Canvas coordinates are counted in units of 1e-4.  With S the larger
    span of the points and the origin, at least D, and
    C = 2e4 (SIZE - 2 MARGIN), x maps to 1e4 MARGIN + C (x - xmin) / 2S
    and y to 1e4 (SIZE - MARGIN) - C (y - ymin) / 2S.  Rounded half up,
    x is (2e4 MARGIN S - C xmin + S + C x) // 2S, one integer floor
    division, and y the mirror image.
    """

    def __init__(self, points: Iterable[tuple[int, int]], D: int) -> None:
        xs, ys = zip((0, 0), *points)
        xmin, ymin = min(xs), min(ys)
        S = max(max(xs) - xmin, max(ys) - ymin, D)
        C = 20000 * (SIZE - 2 * MARGIN)
        self._x = 20000 * MARGIN * S - C * xmin + S, C, 2 * S
        self._y = 20000 * (SIZE - MARGIN) * S + C * ymin + S, -C, 2 * S

    def texts(self, points: Collection[tuple[int, int]]
              ) -> dict[tuple[int, int], str]:
        """Each point's canvas text "x,y"; every distinct x and every
        distinct y among the points is quantised once."""
        (P, Q, R), (S, T, U) = self._x, self._y
        xs = {x: _decimal((P + Q * x) // R) for x in {x for x, _ in points}}
        ys = {y: _decimal((S + T * y) // U) for y in {y for _, y in points}}
        return {p: f"{xs[p[0]]},{ys[p[1]]}" for p in points}


def _decimal(i: int) -> str:
    """i / 1e4 with four decimals."""
    return f"{i // 10000}.{i % 10000:04d}"


def _region(D: int, domain: ToricDomain) -> list[tuple[int, int]]:
    """The region polygon of domain over D, a multiple of its own."""
    s = D // domain.D
    return [(0, 0)] + [(x * s, y * s) for x, y in domain.ints]


def _document(body: list[str]) -> str:
    head = ('<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{SIZE}" height="{SIZE}" '
            f'viewBox="0 0 {SIZE} {SIZE}">')
    return "\n".join([head] + body + ["</svg>", ""])


def _axes(at: dict[tuple[int, int], str], xmax: int, ymax: int) -> list[str]:
    """The axes from the origin to (xmax, 0) and (0, ymax); at holds
    the canvas texts of those three points."""
    (ox, oy), (xx, xy), (yx, yy) = (
        at[p].split(",") for p in ((0, 0), (xmax, 0), (0, ymax)))
    style = 'stroke="#888888" stroke-width="1"'
    return [f'<line x1="{ox}" y1="{oy}" x2="{xx}" y2="{xy}" {style} />',
            f'<line x1="{ox}" y1="{oy}" x2="{yx}" y2="{yy}" {style} />']


def _points(at: dict[tuple[int, int], str],
            poly: Iterable[tuple[int, int]]) -> str:
    return " ".join(map(at.__getitem__, poly))


def render_decomposition(domain: ToricDomain, tree: Tree) -> str:
    """The domain's outline over its decomposition's triangles.

    tree is what expanding domain returned; both are drawn from their
    integers over the domain's D.
    """
    D, tris = _tiles(tree)
    outline = _region(D, domain)
    corners = list(chain.from_iterable(tris))
    xs, ys = zip(*corners)
    xmax, ymax = max(xs), max(ys)
    # the axes' ends lie inside the span of the corners and the origin
    points = {*outline, *corners, (xmax, 0), (0, ymax)}
    at = _Canvas(points, D).texts(points)
    body = _axes(at, xmax, ymax)
    offset = 0
    if domain.kind == "convex":
        body.append(f'<polygon points="{_points(at, tris[0])}" '
                    f'fill="{_HEAD_FILL}" fill-opacity="0.9" '
                    f'stroke="#555555" stroke-width="1" />')
        offset = 1
    for i, poly in enumerate(tris[offset:]):
        color = _PALETTE[i % len(_PALETTE)]
        body.append(f'<polygon points="{_points(at, poly)}" '
                    f'fill="{color}" fill-opacity="0.8" '
                    f'stroke="#333333" stroke-width="1" />')
    body.append(f'<polyline points="{_points(at, outline)}" '
                f'fill="none" stroke="#000000" stroke-width="2" />')
    return _document(body)


def render_approximation(domain: ToricDomain, approx: ToricDomain) -> str:
    """The domain filled solid with the approximating domain drawn over it."""
    D = lcm(domain.D, approx.D)
    region, approx_region = _region(D, domain), _region(D, approx)
    xs, ys = zip(*region, *approx_region)
    xmax, ymax = max(xs), max(ys)
    points = {*region, *approx_region, (xmax, 0), (0, ymax)}
    at = _Canvas(points, D).texts(points)
    body = _axes(at, xmax, ymax)
    body.append(f'<polygon points="{_points(at, region)}" '
                f'fill="{_PALETTE[0]}" fill-opacity="0.55" '
                f'stroke="#333333" stroke-width="1" />')
    body.append(f'<polygon points="{_points(at, approx_region)}" '
                f'fill="{_PALETTE[1]}" fill-opacity="0.35" '
                f'stroke="#b3541e" stroke-width="2" stroke-dasharray="6 3" />')
    return _document(body)
