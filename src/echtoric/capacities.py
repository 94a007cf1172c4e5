"""Capacity sequences of toric domains and their max-plus calculus.

A capacity sequence is the list c_0, c_1, ..., c_K of exact rationals.
The capacities of a concave or convex toric domain are a function of
its weight expansion alone, so concave_caps and convex_caps take the
expansion, not the domain: whoever expanded the domain passes it on.
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

All three run in one integer kernel.  Each call clears denominators
once, by one lcm over the ball sizes or over its input values, builds
the ball staircases directly as int lists, folds, subtracts and
certifies on them, and turns only the final K + 1 values into
Fractions.

The kernel tries only run starts.  Capacity sequences are
nondecreasing, so in max over i of s_i + t_(k-i) the max across a flat
run of s sits at the run's first index in range, and in min over l of
s_(k+l) - t_l the min across a flat run of t sits at the run's first
index.  A ball staircase up to horizon n has about sqrt(2n) runs, so
folding a ball into a union at horizon n costs O(n sqrt(n)) cells
instead of O(n^2), and the complement costs K + 1 cells per run start
of T up to 2L.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import DomainError
from .geometry import RationalLike, rational
from .weights import WeightExpansion


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
    return CapacitySeq(tuple(_ball_ints(ra, K)))


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


def _ball_ints(a, K: int) -> list:
    """Ball staircase 0, a, a, 2a, 2a, 2a, ... as a list of length K + 1.

    The kernel passes an int size; ball_caps passes its Fraction.
    """
    out: list = []
    d = 0
    while len(out) <= K:
        out.extend([d * a] * (d + 1))
        d += 1
    del out[K + 1:]
    return out


def _run_starts(s: list[int]) -> list[int]:
    """Indices i >= 1 where a new run begins, s[i] != s[i - 1]."""
    return [i for i in range(1, len(s)) if s[i] != s[i - 1]]


def _maxplus(s: list[int], t: list[int], K: int) -> list[int]:
    """out[k] = max over i of s[i] + t[k - i], for k <= K <= horizons' sum.

    The operands are nondecreasing, so across a flat run of s the term
    t[k - i] only falls: the max sits at the run's first index inside
    the range.  Only index 0, the lowest admissible index and the run
    starts of s are tried, and s is the operand with fewer runs.
    """
    rs, rt = _run_starts(s), _run_starts(t)
    if len(rt) < len(rs):
        s, t, rs = t, s, rt
    n = len(t) - 1
    # run start 0 covers k <= n; past it the lowest index is k - n
    out = [s[0] + x for x in t[:K + 1]]
    if K > n:
        out += [x + t[n] for x in s[1:K - n + 1]]
    for r in rs:
        if r > K:
            break
        c = s[r]
        stop = min(K, r + n) + 1
        out[r:stop] = [o if o >= c + x else c + x
                       for o, x in zip(out[r:stop], t)]
    return out


def _minplus(s: list[int], t: list[int], L: int,
             K: int) -> tuple[list[int], bool]:
    """out[k] = min over l <= L of s[k + l] - t[l], and its certificate.

    Across a flat run of t the term s[k + l] only grows, so the min
    sits at the run's first index and only run starts are tried.  The
    certificate holds when the run starts in (L, 2L] lower no value,
    which is the min over l <= 2L agreeing with the min over l <= L.
    It needs s out to K + 2L and t out to 2L, and is False otherwise.
    """
    starts = _run_starts(t[:2 * L + 1])
    cut = bisect.bisect_right(starts, L)
    c = t[0]
    out = [x - c for x in s[:K + 1]]
    for l in starts[:cut]:
        c = t[l]
        out = [o if o <= x - c else x - c
               for o, x in zip(out, s[l:l + K + 1])]
    if len(s) <= K + 2 * L or len(t) <= 2 * L:
        return out, False
    for l in starts[cut:]:
        c = t[l]
        if any(x - c < o for o, x in zip(out, s[l:l + K + 1])):
            return out, False
    return out, True


def _common_den(values: Iterable[Fraction]) -> int:
    return math.lcm(1, *(v.denominator for v in values))


def _integerised(seqs: Sequence[CapacitySeq]) -> tuple[list[list[int]], int]:
    den = _common_den(v for s in seqs for v in s.values)
    return [[int(v * den) for v in s.values] for s in seqs], den


def _union(seqs: list[list[int]], K: int) -> list[int]:
    acc = seqs[0][:K + 1]
    for t in seqs[1:]:
        acc = _maxplus(acc, t, K)
    return acc


def _rationals(vals: list[int], den: int, certified: bool) -> CapacitySeq:
    return CapacitySeq(tuple(Fraction(v, den) for v in vals), certified)


def seq_sum(S: CapacitySeq, T: CapacitySeq,
            K: Optional[int] = None) -> CapacitySeq:
    """Disjoint union: max-plus convolution, valid out to both horizons."""
    return seq_sum_many((S, T), S.horizon + T.horizon if K is None else K)


def seq_sum_many(seqs: Iterable[CapacitySeq], K: int) -> CapacitySeq:
    seqs = list(seqs)
    if not seqs:
        raise DomainError("empty union has no capacity sequence")
    if K > sum(s.horizon for s in seqs):
        raise DomainError("requested horizon exceeds what the inputs support")
    ints, den = _integerised(seqs)
    return _rationals(_union(ints, K), den, all(s.certified for s in seqs))


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
    vals, certified = _minplus(s, t, L, K)
    return _rationals(vals, den, certified and S.certified and T.certified)


def seq_leq(S: CapacitySeq, T: CapacitySeq) -> bool:
    """Pointwise comparison over the common horizon."""
    n = min(len(S), len(T))
    return all(S.values[k] <= T.values[k] for k in range(n))


def concave_caps(expansion: WeightExpansion, K: int) -> CapacitySeq:
    """Capacities of a concave domain: the union of its weight balls."""
    if expansion.head is not None:
        raise DomainError("concave_caps needs a concave domain's expansion")
    den = _common_den(expansion.weights)
    balls = [_ball_ints(int(w * den), K) for w in expansion.weights]
    return _rationals(_union(balls, K), den, True)


def default_sub_budget(K: int, head: Fraction) -> int:
    return math.ceil(8 * (K + head * head))


def convex_caps(expansion: WeightExpansion, K: int,
                L: Optional[int] = None) -> CapacitySeq:
    """Capacities of a convex domain: its head ball less its weight balls."""
    b = expansion.head
    if b is None:
        raise DomainError("convex_caps needs a convex domain's expansion")
    if K < 0 or (L is not None and L < 0):
        raise DomainError("budgets must be nonnegative")
    if not expansion.weights:
        return ball_caps(b, K)
    if L is None:
        L = default_sub_budget(K, b)
    den = _common_den((b, *expansion.weights))
    T = _union([_ball_ints(int(w * den), 2 * L)
                for w in expansion.weights], 2 * L)
    vals, certified = _minplus(_ball_ints(int(b * den), K + 2 * L), T, L, K)
    return _rationals(vals, den, certified)
