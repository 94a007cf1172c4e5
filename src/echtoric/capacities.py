"""Capacity sequences of toric domains and their max-plus calculus.

A capacity sequence is the list c_0, c_1, ..., c_K of exact rationals.
Only three primitives are needed and everything else is composition:

* the staircase sequence of a ball or an ellipsoid,
* the disjoint-union rule (c(X u Y))_k = max over i+j=k of c_i + c_j,
* the complement rule for a convex domain: writing the ambient ball
  capacities S and the capacities T of the removed pieces,
  c_k = min over l of S_(k+l) - T_l.

The min in the complement rule runs over all l >= 0; we truncate at a
budget L and certify the answer by running the min again with budget
2L.  If both agree the truncation did not bite and the sequence is
marked certified.

Convolutions are done on integers after clearing denominators, which
keeps the exact arithmetic cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .domains import ToricDomain
from .errors import DomainError
from .geometry import RationalLike, rational
from .weights import DEFAULT_MAX_NODES, concave_weights, convex_weights


@dataclass(frozen=True)
class CapacitySeq:
    """Exact values c_0..c_K plus a flag telling whether they are final.

    certified=False means a truncated complement min produced the
    values and the doubled budget did not confirm them.  A min over
    l <= L can only be at least the min over all l, and max-plus sums
    of upper bounds stay upper bounds, so each value is still a valid
    upper bound on the true capacity; it may just not be attained.
    """

    values: tuple[Fraction, ...]
    certified: bool = True

    def __post_init__(self) -> None:
        vals = tuple(rational(v) for v in self.values)
        if not vals:
            raise DomainError("capacity sequence needs at least c_0")
        if vals[0] != 0:
            raise DomainError("capacity sequences start at 0")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise DomainError("capacity sequences are nondecreasing")
        object.__setattr__(self, "values", vals)

    @property
    def horizon(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.values[k]

    def __len__(self) -> int:
        return len(self.values)

    def truncate(self, K: int) -> "CapacitySeq":
        if K > self.horizon:
            raise DomainError(f"cannot extend horizon {self.horizon} to {K}")
        return CapacitySeq(self.values[:K + 1], self.certified)


def ball_caps(a: RationalLike, K: int) -> CapacitySeq:
    """Ball staircase: 0, a, a, 2a, 2a, 2a, 3a, ... up to index K."""
    ra = rational(a)
    if ra <= 0:
        raise DomainError("ball size must be positive")
    vals = []
    d = 0
    for k in range(K + 1):
        while (d + 1) * (d + 2) // 2 <= k:
            d += 1
        vals.append(d * ra)
    return CapacitySeq(tuple(vals))


def ellipsoid_caps(a: RationalLike, b: RationalLike, K: int) -> CapacitySeq:
    """Sorted values of a*m + b*n.

    Restricting to m + n <= K is enough: any value with m + n > K
    strictly exceeds the K+1 multiples of min(a, b) already present.
    """
    ra, rb = rational(a), rational(b)
    if ra <= 0 or rb <= 0:
        raise DomainError("ellipsoid radii must be positive")
    vals = sorted(ra * m + rb * n
                  for m in range(K + 1) for n in range(K + 1 - m))
    return CapacitySeq(tuple(vals[:K + 1]))


def _integerised(seqs: Sequence[CapacitySeq]) -> tuple[list[list[int]], int]:
    den = 1
    for s in seqs:
        for v in s.values:
            den = math.lcm(den, v.denominator)
    scaled = [[int(v * den) for v in s.values] for s in seqs]
    return scaled, den


def seq_sum(S: CapacitySeq, T: CapacitySeq,
            K: Optional[int] = None) -> CapacitySeq:
    """Disjoint union: max-plus convolution, valid out to both horizons."""
    k1, k2 = S.horizon, T.horizon
    if K is None:
        K = k1 + k2
    if K > k1 + k2:
        raise DomainError("requested horizon exceeds what the inputs support")
    (s, t), den = _integerised([S, T])
    out = []
    for k in range(K + 1):
        lo = max(0, k - k2)
        hi = min(k, k1)
        out.append(max(s[i] + t[k - i] for i in range(lo, hi + 1)))
    return CapacitySeq(tuple(Fraction(v, den) for v in out),
                       S.certified and T.certified)


def seq_sum_many(seqs: Iterable[CapacitySeq], K: int) -> CapacitySeq:
    acc: Optional[CapacitySeq] = None
    for s in seqs:
        acc = s if acc is None else seq_sum(acc, s, K)
    if acc is None:
        raise DomainError("empty union has no capacity sequence")
    return acc.truncate(min(K, acc.horizon))


def seq_sub(S: CapacitySeq, T: CapacitySeq, L: int, K: int) -> CapacitySeq:
    """Complement rule c_k = min over l <= L of S_(k+l) - T_l.

    Certification reruns the min with budget 2L; if nothing changes the
    tail of the search cannot matter and the result is exact (assuming
    the inputs were).  The inputs must reach at least k = K + L and
    l = L; the certificate additionally wants K + 2L and 2L.
    """
    if L < 0 or K < 0:
        raise DomainError("budgets must be nonnegative")
    if S.horizon < K + L or T.horizon < L:
        raise DomainError("input horizons too short for the requested budget")
    (s, t), den = _integerised([S, T])
    vals = [min(s[k + l] - t[l] for l in range(L + 1)) for k in range(K + 1)]
    can_check = S.horizon >= K + 2 * L and T.horizon >= 2 * L
    certified = False
    if can_check:
        doubled = [min(s[k + l] - t[l] for l in range(2 * L + 1))
                   for k in range(K + 1)]
        certified = doubled == vals and S.certified and T.certified
    return CapacitySeq(tuple(Fraction(v, den) for v in vals), certified)


def seq_leq(S: CapacitySeq, T: CapacitySeq) -> bool:
    """Pointwise comparison over the common horizon."""
    n = min(len(S), len(T))
    return all(S.values[k] <= T.values[k] for k in range(n))


def concave_caps(domain: ToricDomain, K: int,
                 max_nodes: int = DEFAULT_MAX_NODES) -> CapacitySeq:
    """Capacities of a concave domain through its weight expansion."""
    expansion, _ = concave_weights(domain, max_nodes)
    return seq_sum_many((ball_caps(w, K) for w in expansion.weights), K)


def default_sub_budget(K: int, head: Fraction) -> int:
    return math.ceil(8 * (K + head * head))


def convex_caps(domain: ToricDomain, K: int, L: Optional[int] = None,
                max_nodes: int = DEFAULT_MAX_NODES) -> CapacitySeq:
    """Capacities of a convex domain through its weight expansion."""
    expansion, _ = convex_weights(domain, max_nodes)
    b = expansion.head
    assert b is not None
    if not expansion.weights:
        return ball_caps(b, K)
    if L is None:
        L = default_sub_budget(K, b)
    S = ball_caps(b, K + 2 * L)
    T = seq_sum_many((ball_caps(w, 2 * L) for w in expansion.weights), 2 * L)
    return seq_sub(S, T, L, K)
