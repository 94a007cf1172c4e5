"""Capacity sequences of concave and convex toric domains.

A capacity sequence is the list c_0, c_1, ..., c_K of exact rationals.
The capacities of a concave or convex toric domain are set by a
collection of balls, its weight expansion, so concave_caps and
convex_caps take the expansion, not the domain: whoever expanded the
domain passes it on.  Both entry points run on one kernel over the
staircases 0, a, a, 2a, 2a, 2a, ... of those balls:

* concave_caps is the union of the weight balls, one staircase per
  run of equal balls, folded together by the disjoint-union rule
  (c(X u Y))_k = max over i+j=k of c_i + c_j;
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

The union of n equal balls B(a) is one staircase.  Its c_k is a times
the most total degree d_1 + ... + d_n that fits in d_1 (d_1 + 1) / 2 +
... + d_n (d_n + 1) / 2 <= k indices, since the ball staircase reaches
d a at index d (d + 1) / 2.  Raising one ball from degree d to d + 1
costs d + 1 indices, a cost that grows with d.  So if two degrees
differ by 2 or more, lowering the larger by one and raising the smaller
by one keeps the total degree and frees indices: balanced degrees, all
within 1 of each other, are optimal.  Raised in balanced order, the
s-th unit of total degree (from s = 0) raises a ball from degree s // n
and costs s // n + 1 indices.  The union's staircase is therefore the
value s a over a run of s // n + 1 indices, for s = 0, 1, 2, ..., and
n = 1 is the ball staircase.

Both rules run on integers.  An expansion carries its head and
weights as integers over one denominator D; each call divides them by
their gcd g, builds the ball staircases directly as int lists, folds
and subtracts on them, and returns the K + 1 values times g over D as
a CapacitySeq, whose Fractions are only a view.

The kernel tries only run starts.  Capacity sequences are
nondecreasing, so in max over i of s_i + t_(k-i) the max across a flat
run of s sits at the run's first index in range, and in min over l of
s_(k+l) - t_l the min across a flat run of t sits at the run's first
index.  A ball staircase up to horizon n has about sqrt(2n) runs, so
folding a ball into a union at horizon n costs O(n sqrt(n)) cells
instead of O(n^2), and the complement costs K + 1 cells per run start
of T up to its horizon.  The weights are nonincreasing, so equal balls
are adjacent, and each run of them costs one staircase and one fold:
a union costs one fold per distinct size, not per ball, and E(1, N),
N unit balls, folds nothing.  The guards still count every ball.
convex_caps builds a union once: when its range grows, each partial
union computes only its new entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from typing import Iterable, Sequence

from .errors import DomainError, LimitError
from .geometry import RationalLike, ratio
from .records import Record
from .weights import WeightExpansion, _fractions

# Ball staircase entries one ball_caps, concave_caps or convex_caps call
# may build, counted as balls times horizon; past it the call raises
# LimitError.
MAX_STAIRCASE_CELLS = 1_000_000


def _guard(balls: int, horizon: int) -> None:
    if balls * horizon > MAX_STAIRCASE_CELLS:
        raise LimitError(
            f"{balls} ball staircases out to {horizon} exceed "
            f"{MAX_STAIRCASE_CELLS} entries")


class CapacitySeq(Record):
    """Values c_0..c_K times D, checked once, when built, and proved.

    values, which seq[k] reads, is their Fraction view, built when first
    read.  certified is a class constant, not a field: every sequence
    the package computes is proved.  It stays readable for the caps
    report's "certified" key and for the benchmark tracer.
    """

    D: int
    ints: tuple[int, ...]
    certified = True

    def __init__(self, D: int, ints: Sequence[int]) -> None:
        ints = tuple(ints)
        d = self.__dict__
        d["D"] = D
        d["ints"] = ints
        if D <= 0 or ints[:1] != (0,):
            raise DomainError("capacity sequences start at 0, over D > 0")
        if list(ints) != sorted(ints):
            raise DomainError("capacity sequences are nondecreasing")

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(map(_fractions(self.D, self.ints).__getitem__, self.ints))

    def __getitem__(self, k: int) -> Fraction:
        return self.values[k]

    def __len__(self) -> int:
        return len(self.ints)


def ball_caps(a: RationalLike, K: int) -> CapacitySeq:
    """Ball staircase: 0, a, a, 2a, 2a, 2a, 3a, ... up to index K."""
    n, d = ratio(a)
    if n <= 0:
        raise DomainError("ball size must be positive")
    if K < 0:
        raise DomainError("K must be nonnegative")
    _guard(1, K)
    return CapacitySeq(d, _ball_ints(n, K))


def _ball_ints(a: int, K: int, n: int = 1) -> list[int]:
    """The union of n balls B(a) as a list of length K + 1.

    The value s a fills a run of s // n + 1 indices; n = 1 is the ball
    staircase 0, a, a, 2a, 2a, 2a, ...
    """
    out: list[int] = []
    s = 0
    while len(out) <= K:
        out.extend([s * a] * (s // n + 1))
        s += 1
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


def _sizes(sizes: Sequence[int]) -> tuple[list[int], int]:
    """sizes as multiples of their largest common divisor g, and g.

    The multiples depend only on the ratios, so a scaled domain gets the
    same integers and the same horizon."""
    g = math.gcd(*sizes)
    return [a // g for a in sizes], g


def _runs(ws: list[int]) -> list[tuple[int, int]]:
    """Each size of the nonincreasing ws with the length of its run."""
    return [(w, len(list(run))) for w, run in groupby(ws)]


def concave_caps(expansion: WeightExpansion, K: int) -> CapacitySeq:
    """Capacities of a concave domain: the union of its weight balls."""
    if expansion.top is not None:
        raise DomainError("concave_caps needs a concave domain's expansion")
    if not expansion.sizes:
        raise DomainError("a concave expansion needs at least one weight")
    if K < 0:
        raise DomainError("K must be nonnegative")
    _guard(len(expansion.sizes), K)
    ws, g = _sizes(expansion.sizes)
    union = _union([_ball_ints(w, K, n) for w, n in _runs(ws)], K)
    return CapacitySeq(expansion.D, [v * g for v in union])


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
                ) -> tuple[CapacitySeq, int]:
    """The complement min, run on integers, and its proved horizon.

    The min runs over l <= R from R = 2K + 2.  While the horizon H it
    proves lies past R, R grows to H, but at most fourfold a round: a
    min over a short range can be far above the final one on a thin
    domain, and H shrinks as the min falls.  Each round computes only
    the union entries and the terms l past the previous R, and H, a
    function of the min, b and ws, only when the min has moved.
    """
    (b, *ws), g = _sizes((expansion.top, *expansion.sizes))
    runs = _runs(ws)
    parts: list[list[int]] = [[] for _ in runs]
    out, H, done, R = None, 0, 0, 2 * K + 2
    while True:
        _guard(len(ws) + 1, K + R)
        s = _ball_ints(b, K + R)
        t = _grow(parts, [_ball_ints(w, R, n) for w, n in runs], R)
        low = _lower(s[:K + 1] if out is None else out, s, t,  # l = 0 first
                     (l for l in range(done + 1, R + 1) if t[l] != t[l - 1]))
        if low != out:
            out, H = low, _horizon(low, b, ws)
        if H <= R:
            return CapacitySeq(expansion.D, [v * g for v in out]), H
        done, R = R, min(H, 4 * R)


def _convex_check(expansion: WeightExpansion, K: int) -> None:
    if expansion.top is None:
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
    return _complement(expansion, K)[1] if expansion.sizes else 0


def convex_caps(expansion: WeightExpansion, K: int) -> CapacitySeq:
    """Capacities of a convex domain: its head ball less its weight balls."""
    _convex_check(expansion, K)
    if not expansion.sizes:
        _guard(1, K)
        return CapacitySeq(expansion.D, _ball_ints(expansion.top, K))
    return _complement(expansion, K)[0]
