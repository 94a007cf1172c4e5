"""Homology classes of the blown-up plane and their forms, on integers.

A class is a L + sum b_i E_i + sum c_j Ehat_j, with the E_i at the
source spheres and the Ehat_j at the target spheres.  The intersection
form is diagonal (+1, -1, ..., -1), c1 pairs as 3 a + sum b_i + sum
c_j, and a symplectic form is given by its areas on the basis: head on
L, sizes on the E_i and hats on the Ehat_j, in coefficient order.
"""

from __future__ import annotations

from typing import Sequence


class HomologyClass:
    """Integer class a*L + sum b_i E_i + sum c_j Ehat_j.

    A frozen value, written out here because this module imports only
    the standard library: equal within the class, hashed and shown by
    its fields (L, E, Ehat), and never assigned to after __init__.
    """

    L: int
    E: tuple[int, ...]
    Ehat: tuple[int, ...]

    def __init__(self, L: int, E: tuple[int, ...] = (),
                 Ehat: tuple[int, ...] = ()) -> None:
        d = self.__dict__
        d["L"] = L
        d["E"] = E
        d["Ehat"] = Ehat

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.L, self.E, self.Ehat)
                    == (other.L, other.E, other.Ehat))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.L, self.E, self.Ehat))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(L={self.L!r}, E={self.E!r}, "
                f"Ehat={self.Ehat!r})")

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


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
