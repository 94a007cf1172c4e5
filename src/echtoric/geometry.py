"""The one rational parser, and Points, the Fraction view of vertices.

Floats are rejected at the boundary so no rounding can creep in.
Domains and lattice paths store integers; a Point is how one of their
vertices reads as Fractions.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .errors import GeometryError
from .records import Record

RationalLike = Union[int, str, Fraction]

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def ratio(value: RationalLike) -> tuple[int, int]:
    """An exact rational as integers (n, d), d > 0, with text "p/q" kept
    as written.  Text must be "n" or "p/q" in ASCII digits with an
    optional minus sign: decimals, exponents, spaces, a plus sign, other
    digits (Arabic-Indic, full-width) and numerals too long to read are
    refused, and so are floats."""
    if isinstance(value, str):  # every numeral of a file comes here
        if _RATIONAL.fullmatch(value):
            num, _, den = value.partition("/")
            try:
                n, d = int(num), int(den or 1)
            except ValueError:  # past sys.get_int_max_str_digits()
                raise GeometryError(f"numeral of {len(value)} characters "
                                    "is too long to read") from None
            if d:
                return n, d
        raise GeometryError(f"not a rational value: {value!r}")
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    if isinstance(value, bool):
        raise GeometryError(f"not a rational value: {value!r}")
    raise GeometryError(f"not a rational value: {value!r} (floats are not accepted)")


def rational(value: RationalLike) -> Fraction:
    """Coerce to an exact rational under ratio's rules."""
    return value if isinstance(value, Fraction) else Fraction(*ratio(value))


class Point(Record):
    x: Fraction
    y: Fraction

    def __init__(self, x: RationalLike, y: RationalLike) -> None:
        d = self.__dict__
        d["x"] = rational(x)
        d["y"] = rational(y)
