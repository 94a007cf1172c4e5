"""Homology classes of the blown-up plane and their forms, on integers.

A class is a L + sum b_i E_i + sum c_j Ehat_j, with the E_i at the
source spheres and the Ehat_j at the target spheres.  The intersection
form is diagonal (+1, -1, ..., -1), c1 pairs as 3 a + sum b_i + sum
c_j, and a symplectic form is given by its areas on the basis: head on
L, sizes on the E_i and hats on the Ehat_j, in coefficient order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class HomologyClass:
    """Integer class a*L + sum b_i E_i + sum c_j Ehat_j."""

    L: int
    E: tuple[int, ...] = ()
    Ehat: tuple[int, ...] = ()


def _dot(u: Sequence, v: Sequence):
    total = 0
    for a, b in zip(u, v):  # absent coordinates count as zero
        total += a * b
    return total


def intersection(A: HomologyClass, B: HomologyClass) -> int:
    return A.L * B.L - _dot(A.E, B.E) - _dot(A.Ehat, B.Ehat)


def c1(A: HomologyClass) -> int:
    return 3 * A.L + sum(A.E) + sum(A.Ehat)


def area(A: HomologyClass, head, sizes: Sequence = (),
         hats: Sequence = ()):
    """Symplectic area of A for the form of area head on L, sizes on
    the E_i and hats on the Ehat_j: head a + sum sizes b + sum hats c."""
    return head * A.L + _dot(sizes, A.E) + _dot(hats, A.Ehat)
