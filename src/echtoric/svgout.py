"""Plain SVG 1.1 renderings of decompositions and approximations.

A decomposition is drawn from the rows that concave_weights or
convex_weights returned, so drawing never expands a domain again.
Each triangle is written straight from its integer row: the level a
and the map (ma, mb, mc, md, tx, ty) give the corners (tx, ty),
(mb a + tx, md a + ty) and (ma a + tx, mc a + ty), each over D.
Documents are built by string assembly, no markup library.  Model
coordinates are exact rationals up to the last step.  Each drawing
fixes its canvas map once, as an integer offset and scale per axis,
and then quantises every coordinate n/d to four decimals, rounded half
up, with one integer floor division, so the output bytes depend only
on the input and quantising makes no Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Iterable, Optional, Sequence, Union

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


def _triangles(dec: Optional[Decomposition]) -> list[tuple[Point, ...]]:
    """Each row's images of (0, 0), (0, a) and (a, 0), in in-order."""
    if dec is None:
        return []
    D, rows = dec.D, dec.rows
    polys = []
    for idx in inorder(dec):
        a, (ma, mb, mc, md, tx, ty), _, _ = rows[idx]
        polys.append((Point(Fraction(tx, D), Fraction(ty, D)),
                      Point(Fraction(mb * a + tx, D),
                            Fraction(md * a + ty, D)),
                      Point(Fraction(ma * a + tx, D),
                            Fraction(mc * a + ty, D))))
    return polys


def decomposition_polygons(tree: Union[Decomposition, ConvexDecomposition],
                           ) -> list[tuple[Point, ...]]:
    """One triangle per weight; a convex domain adds its head simplex first."""
    if isinstance(tree, Decomposition):
        return _triangles(tree)
    b = tree.head
    return ([(Point(0, 0), Point(0, b), Point(b, 0))]
            + _triangles(tree.left) + _triangles(tree.right))


def _bounds(values: Iterable[Fraction]) -> tuple[Fraction, Fraction]:
    """The least and the greatest of values, compared in integers."""
    it = iter(values)
    lo = hi = next(it)
    ln, ld = hn, hd = lo.numerator, lo.denominator
    for v in it:
        n, d = v.numerator, v.denominator
        if n * ld < ln * d:
            lo, ln, ld = v, n, d
        elif n * hd > hn * d:
            hi, hn, hd = v, n, d
    return lo, hi


def _axis(offset: Fraction, slope: Fraction) -> tuple[int, int, int]:
    """Integers (P, Q, R) that round offset + slope * n/d half up.

    The rounded value is (P*d + Q*n) // (R*d): with N/M = offset +
    slope * n/d over the denominator M = R*d/2 > 0, floor(N/M + 1/2)
    is (2N + M) // 2M.
    """
    on, od = offset.numerator, offset.denominator
    sn, sd = slope.numerator, slope.denominator
    return 2 * on * sd + od * sd, 2 * od * sn, 2 * od * sd


def _quant(v: Fraction, axis: tuple[int, int, int]) -> str:
    P, Q, R = axis
    n, d = v.numerator, v.denominator
    i = (P * d + Q * n) // (R * d)
    return f"{i // 10000}.{i % 10000:04d}"


class _Canvas:
    """Maps model points onto a square canvas, y axis pointing up.

    Canvas coordinates are counted in units of 1e-4: x maps to
    1e4 * (MARGIN + (x - xmin) * scale), y to
    1e4 * (SIZE - MARGIN - (y - ymin) * scale), both nonnegative.
    """

    def __init__(self, points: Iterable[Point]) -> None:
        pts = list(points)
        xmin, xmax = _bounds(chain((p.x for p in pts), (Fraction(0),)))
        ymin, ymax = _bounds(chain((p.y for p in pts), (Fraction(0),)))
        span = max(xmax - xmin, ymax - ymin, Fraction(1))
        scale = Fraction(10000 * (SIZE - 2 * MARGIN)) / span
        self._x = _axis(10000 * MARGIN - xmin * scale, scale)
        self._y = _axis(10000 * (SIZE - MARGIN) + ymin * scale, -scale)

    def map(self, p: Point) -> tuple[str, str]:
        return _quant(p.x, self._x), _quant(p.y, self._y)

    def points_attr(self, poly: Sequence[Point]) -> str:
        return " ".join("%s,%s" % self.map(p) for p in poly)


def _document(body: list[str]) -> str:
    head = ('<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{SIZE}" height="{SIZE}" '
            f'viewBox="0 0 {SIZE} {SIZE}">')
    return "\n".join([head] + body + ["</svg>", ""])


def _axes(canvas: _Canvas, xmax: Fraction, ymax: Fraction) -> list[str]:
    ox, oy = canvas.map(Point(0, 0))
    xx, xy = canvas.map(Point(xmax, 0))
    yx, yy = canvas.map(Point(0, ymax))
    style = 'stroke="#888888" stroke-width="1"'
    return [f'<line x1="{ox}" y1="{oy}" x2="{xx}" y2="{xy}" {style} />',
            f'<line x1="{ox}" y1="{oy}" x2="{yx}" y2="{yy}" {style} />']


def render_decomposition(domain: ToricDomain,
                         polys: list[tuple[Point, ...]]) -> str:
    """The domain's outline over its decomposition_polygons."""
    canvas = _Canvas(chain(domain.boundary, *polys))
    body = _axes(canvas, _bounds(p.x for poly in polys for p in poly)[1],
                 _bounds(p.y for poly in polys for p in poly)[1])
    offset = 0
    if domain.kind == "convex":
        body.append(f'<polygon points="{canvas.points_attr(polys[0])}" '
                    f'fill="{_HEAD_FILL}" fill-opacity="0.9" '
                    f'stroke="#555555" stroke-width="1" />')
        offset = 1
    for i, poly in enumerate(polys[offset:]):
        color = _PALETTE[i % len(_PALETTE)]
        body.append(f'<polygon points="{canvas.points_attr(poly)}" '
                    f'fill="{color}" fill-opacity="0.8" '
                    f'stroke="#333333" stroke-width="1" />')
    outline = canvas.points_attr(domain.region_polygon())
    body.append(f'<polyline points="{outline}" fill="none" '
                f'stroke="#000000" stroke-width="2" />')
    return _document(body)


def render_approximation(domain: ToricDomain, approx: ToricDomain) -> str:
    """The domain filled solid with the approximating domain drawn over it."""
    canvas = _Canvas(chain(domain.boundary, approx.boundary))
    xmax = max(domain.xmax(), approx.xmax())
    ymax = max(domain.ymax(), approx.ymax())
    body = _axes(canvas, xmax, ymax)
    body.append(f'<polygon points="{canvas.points_attr(domain.region_polygon())}" '
                f'fill="{_PALETTE[0]}" fill-opacity="0.55" '
                f'stroke="#333333" stroke-width="1" />')
    body.append(f'<polygon points="{canvas.points_attr(approx.region_polygon())}" '
                f'fill="{_PALETTE[1]}" fill-opacity="0.35" '
                f'stroke="#b3541e" stroke-width="2" stroke-dasharray="6 3" />')
    return _document(body)
