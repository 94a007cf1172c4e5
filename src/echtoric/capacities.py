"""Capacity sequences of concave and convex toric domains.

A capacity sequence is the list c_0, c_1, ..., c_K of exact rationals.
The capacities of a concave or convex toric domain are set by a
collection of balls, its weight expansion, so concave_caps and
convex_caps take the expansion, not the domain: whoever expanded the
domain passes it on.  Both entry points run on one kernel over the
staircases 0, a, a, 2a, 2a, 2a, ... of those balls:

* concave_caps is the union of the weight balls, folded in one at a
  time by the disjoint-union rule (c(X u Y))_k = max over i+j=k of
  c_i + c_j;
* convex_caps is the head ball less its weight balls: writing the head
  ball's capacities S and the union T of the weight balls,
  c_k = min over l of S_(k+l) - T_l.

The min in the complement rule runs over all l >= 0.  convex_caps
stops it at a horizon H that it proves per call, in integers.  Write b
and w_1, ..., w_m for the head and the weights as integer multiples of
their largest common unit, so that every scaling of a domain gives the
same integers, and W1 = sum of w_i, W2 = sum of w_i^2.  The ball
staircase 0, a, a, 2a, 2a, 2a, ... is c_n = d(n) a with

    (sqrt(9 + 8n) - 3) / 2 <= d(n) <= (sqrt(1 + 8n) - 1) / 2,

and Cauchy-Schwarz over l_1 + ... + l_m = l bounds the union of the
weight balls by 2 T_l <= sqrt(W2 (m + 8l)) - W1.  Hence

    2 (S_(k+l) - T_l) >= g_k(l) - 3b + W1,
    g_k(l) = b sqrt(9 + 8(k + l)) - sqrt(W2 (m + 8l)),

and g_k increases once 8l (b^2 - W2) >= W2 (9 + 8k) - m b^2, which
holds from some l on because b^2 - W2, twice the area, is positive.
So an H past that point with

    isqrt(b^2 (9 + 8(k + H))) - isqrt(W2 (m + 8H)) - 1 >= 2 c_k + 3b - W1

for every k <= K proves that no l >= H lowers any c_k.  The min first
runs over l <= 2K + 2, H is derived from it, and the range grows
towards H, at most fourfold a round, until it covers H.  H depends on
the shape of the domain and on K, not on its scale.

Both rules run on integers.  Each call writes its ball sizes as
integer multiples of one unit, builds the ball staircases directly as
int lists, folds and subtracts on them, and turns only the final K + 1
values into Fractions.

The kernel tries only run starts.  Capacity sequences are
nondecreasing, so in max over i of s_i + t_(k-i) the max across a flat
run of s sits at the run's first index in range, and in min over l of
s_(k+l) - t_l the min across a flat run of t sits at the run's first
index.  A ball staircase up to horizon n has about sqrt(2n) runs, so
folding a ball into a union at horizon n costs O(n sqrt(n)) cells
instead of O(n^2), and the complement costs K + 1 cells per run start
of T up to its horizon.  convex_caps builds a union once: when its
range grows, each partial union computes only its new entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError, LimitError
from .geometry import RationalLike, rational
from .weights import WeightExpansion

# Ball staircase entries one ball_caps, concave_caps or convex_caps call
# may build, counted as balls times horizon; past it the call raises
# LimitError.
MAX_STAIRCASE_CELLS = 1_000_000


def _guard(balls: int, horizon: int) -> None:
    if balls * horizon > MAX_STAIRCASE_CELLS:
        raise LimitError(
            f"{balls} ball staircases out to {horizon} exceed "
            f"{MAX_STAIRCASE_CELLS} entries")


@dataclass(frozen=True)
class CapacitySeq:
    """Exact values c_0..c_K, each proved.

    certified is a class constant, not a field: every sequence the
    package computes is proved.  It stays readable for the
    "certified": true key of the caps report and for the benchmark
    tracer.
    """

    values: tuple[Fraction, ...]
    certified = True

    def __post_init__(self) -> None:
        vals = tuple(rational(v) for v in self.values)
        if not vals:
            raise DomainError("capacity sequence needs at least c_0")
        if vals[0] != 0:
            raise DomainError("capacity sequences start at 0")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise DomainError("capacity sequences are nondecreasing")
        object.__setattr__(self, "values", vals)

    def __getitem__(self, k: int) -> Fraction:
        return self.values[k]

    def __len__(self) -> int:
        return len(self.values)


def ball_caps(a: RationalLike, K: int) -> CapacitySeq:
    """Ball staircase: 0, a, a, 2a, 2a, 2a, 3a, ... up to index K."""
    ra = rational(a)
    if ra <= 0:
        raise DomainError("ball size must be positive")
    if K < 0:
        raise DomainError("K must be nonnegative")
    _guard(1, K)
    return CapacitySeq(tuple(_ball_ints(ra, K)))


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


def _maxplus(s: list[int], t: list[int], K: int, lo: int = 0) -> list[int]:
    """out[k] = max over i of s[i] + t[k - i], for lo <= k <= K.

    K is at most the sum of the horizons, and the list returned starts
    at out[lo], so that a union can grow.  The operands are
    nondecreasing, so across a flat run of s the term t[k - i] only
    falls: the max sits at the run's first index inside the range.
    Only index 0, the lowest admissible index and the run starts of s
    are tried, and s is the operand with fewer runs.
    """
    rs, rt = _run_starts(s), _run_starts(t)
    if len(rt) < len(rs):
        s, t, rs = t, s, rt
    n = len(t) - 1
    # run start 0 covers k <= n; past it the lowest index is k - n
    out = [s[0] + x for x in t[lo:K + 1]]
    if K > n:
        out += [x + t[n] for x in s[max(1, lo - n):K - n + 1]]
    for r in rs:
        if r > K:
            break
        if r + n < lo:  # t is too short for this run to reach out[lo]
            continue
        c = s[r]
        start, stop = max(r, lo), min(K, r + n) + 1
        out[start - lo:stop - lo] = [
            o if o >= c + x else c + x
            for o, x in zip(out[start - lo:stop - lo],
                            t if start == r else t[start - r:stop - r])]
    return out


def _lower(out: list[int], s: list[int], t: list[int],
           starts: Iterable[int]) -> list[int]:
    """Lower each out[k] to s[k + l] - t[l] for every l in starts."""
    for l in starts:
        c = t[l]
        out = [o if o <= x - c else x - c
               for o, x in zip(out, s[l:l + len(out)])]
    return out


def _grow(parts: list[list[int]], seqs: list[list[int]], K: int) -> list[int]:
    """Grow each partial union parts[j] of seqs[:j + 1] out to K.

    Only the entries past a part's present end are computed, and the
    whole union, the last part, is returned.
    """
    parts[0] = seqs[0][:K + 1]
    for j in range(1, len(seqs)):
        parts[j] += _maxplus(parts[j - 1], seqs[j], K, len(parts[j]))
    return parts[-1]


def _union(seqs: list[list[int]], K: int) -> list[int]:
    return _grow([[] for _ in seqs], seqs, K)


def _rationals(vals: list[int], unit: Fraction) -> CapacitySeq:
    n, d = unit.numerator, unit.denominator
    return CapacitySeq(tuple(Fraction(v * n, d) for v in vals))


def _sizes(values: Sequence[Fraction]) -> tuple[list[int], Fraction]:
    """The values as integer multiples of the largest unit that allows it.

    The integers depend only on the ratios of the values, so a scaled
    domain gets the same integers and the same horizon.
    """
    den = math.lcm(1, *(v.denominator for v in values))
    ints = [int(v * den) for v in values]
    g = math.gcd(*ints)
    return [v // g for v in ints], Fraction(g, den)


def concave_caps(expansion: WeightExpansion, K: int) -> CapacitySeq:
    """Capacities of a concave domain: the union of its weight balls."""
    if expansion.head is not None:
        raise DomainError("concave_caps needs a concave domain's expansion")
    if not expansion.weights:
        raise DomainError("a concave expansion needs at least one weight")
    if K < 0:
        raise DomainError("K must be nonnegative")
    _guard(len(expansion.weights), K)
    ws, unit = _sizes(expansion.weights)
    return _rationals(_union([_ball_ints(w, K) for w in ws], K), unit)


def _horizon(out: list[int], b: int, ws: list[int]) -> int:
    """An H past which no l lowers any out[k], proved as in the docstring."""
    m, w1, w2 = len(ws), sum(ws), sum(w * w for w in ws)
    gap = b * b - w2
    if gap <= 0:
        raise DomainError("a convex expansion needs head^2 > sum of weights^2")
    H = 0
    for k in reversed(range(len(out))):  # the top k tends to need the most
        need = 2 * out[k] + 3 * b - w1

        def low(h: int) -> int:
            return (math.isqrt(b * b * (9 + 8 * (k + h)))
                    - math.isqrt(w2 * (m + 8 * h)) - 1)

        # g_k increases from the least h with 8h * gap >= w2(9 + 8k) - m b^2
        H = max(H, -((m * b * b - w2 * (9 + 8 * k)) // (8 * gap)))
        if low(H) >= need:
            continue
        lo, hi = H, 2 * H + 1
        while low(hi) < need:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if low(mid) < need else (lo, mid)
        H = hi
    return H


def _complement(expansion: WeightExpansion, K: int
                ) -> tuple[list[int], Fraction, int]:
    """The complement min on integers, its unit and its proved horizon.

    The min runs over l <= R from R = 2K + 2.  While the horizon H it
    proves lies past R, R grows to H, but at most fourfold a round: a
    min over a short range can be far above the final one on a thin
    domain, and H shrinks as the min falls.  Each round computes only
    the union entries and the terms l past the previous R.
    """
    (b, *ws), unit = _sizes((expansion.head, *expansion.weights))
    parts: list[list[int]] = [[] for _ in ws]
    out, done, R = None, 0, 2 * K + 2
    while True:
        _guard(len(ws) + 1, K + R)
        s = _ball_ints(b, K + R)
        t = _grow(parts, [_ball_ints(w, R) for w in ws], R)
        out = _lower(s[:K + 1] if out is None else out, s, t,  # l = 0 first
                     (l for l in range(done + 1, R + 1) if t[l] != t[l - 1]))
        H = _horizon(out, b, ws)
        if H <= R:
            return out, unit, H
        done, R = R, min(H, 4 * R)


def _convex_check(expansion: WeightExpansion, K: int) -> None:
    if expansion.head is None:
        raise DomainError("convex_caps needs a convex domain's expansion")
    if K < 0:
        raise DomainError("K must be nonnegative")


def convex_horizon(expansion: WeightExpansion, K: int) -> int:
    """The horizon H that proves convex_caps(expansion, K).

    No l >= H lowers any c_k with k <= K in the complement min.  H
    depends only on the ratios of the head and the weights, so every
    scaling of a domain gets the same H.  A head ball alone has H = 0.
    """
    _convex_check(expansion, K)
    return _complement(expansion, K)[2] if expansion.weights else 0


def convex_caps(expansion: WeightExpansion, K: int) -> CapacitySeq:
    """Capacities of a convex domain: its head ball less its weight balls."""
    _convex_check(expansion, K)
    if not expansion.weights:
        return ball_caps(expansion.head, K)
    vals, unit, _ = _complement(expansion, K)
    return _rationals(vals, unit)
