"""Ball packing decisions by Cremona reduction.

A packing problem is a ball size b together with the sizes of balls to
pack into it.  The state vector (b; a_1, ..., a_n) keeps the sizes
sorted, padded with zeros so that at least three are present.  One move
computes the defect d = a_1 + a_2 + a_3 - b and, when positive,
subtracts it from the head and from the three leading sizes; the
quantity b^2 - sum a_i^2 is untouched by this.  The procedure stops
when the defect is no longer positive (reduced vector) or an entry went
negative.

The packing exists exactly when the reduction ends nonnegative and the
squared sizes fit into the head square.  Each verdict carries the whole
trace so a reduction can be replayed and audited step by step.

A PackingInstance is a WeightExpansion with the head required, its
sizes sorted integers over one D, as reduce_to_packing merges them or
PackingInstance.of clears them from rationals.  One kernel, _reduce,
runs the moves on such integers for decide_packing, cremona_reduce and
every probe of optimal_scale.  Once a move is due, it packs each size
with its ball's label into one integer, so its body sorted by (size,
label) is the sorted vector, read off as trace rows when asked, and
ties break alike in every caller.  A reduction that ends on a negative
entry returns that entry's class C = d L - sum m_i E_i, pulled back
through the moves, each the reflection in L - E_i - E_j - E_k: an
exceptional class, or the line class's image if the head went negative,
whose pairing with the input is the negative entry.  A Verdict keeps
the integer rows; its Fraction trace is built only when read.  defect
and cremona_step stay a single move on Fractions that shares no code
with the kernel, so a replay with them checks its traces.

optimal_scale brackets the supremal factor t at which the scaled balls
still pack.  A probe at t = p/q reads the same integers (q*b; p*a_i for
the scaled balls, q*f_j for the fixed ones): a positive factor changes
neither the sign of a defect, nor which entries are negative, nor the
sign of the slack.  The search bisects on dyadic integers and builds
its two Fractions only on return.  It answers most probes without a
reduction:
- Volume: the slack at p/q is q^2 (b^2 - sum f^2) - p^2 sum a^2, two
  sums taken once per search, so the volume test is O(1).
- Classes: a probe that ends on a negative entry reads its class C, of
  area const + t lin at scale t, lin = -sum m_i a_i over the scaled
  balls.  With lin < 0, every t above -const/lin is infeasible, so
  probes above the least such threshold need no reduction.  The search
  probes each new least threshold once; if it is feasible, it is the
  exact supremum, and every later probe is one integer comparison.
The bracket is plain bisection's, since each probe gets the reducer's
answer: Cremona reduction decides the packing completely, so where a
class has negative area there is no packing and the reducer refuses
too, and feasibility is monotone in t (shrinking balls keeps a
packing), so every t up to a feasible threshold is feasible.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from typing import Optional, Sequence, Union

from .blowups import HomologyClass
from .capacities import _ball_ints, concave_caps
from .errors import DomainError
from .geometry import RationalLike, rational
from .weights import WeightExpansion, _fractions

Vector = tuple[Fraction, ...]


@dataclass(frozen=True)
class PackingInstance(WeightExpansion):
    """Open balls of sizes/D, to pack into an open ball of size top/D."""

    def __post_init__(self) -> None:
        if self.top is None:
            raise DomainError("a packing instance needs a target ball")
        super().__post_init__()

    @classmethod
    def of(cls, target: RationalLike,
           balls: Sequence[RationalLike]) -> "PackingInstance":
        """The instance of rational sizes; zero sizes are dropped."""
        head, sizes = rational(target), [rational(a) for a in balls]
        if head <= 0:
            raise DomainError("packing target size must be positive")
        if any(a < 0 for a in sizes):
            raise DomainError("ball sizes must be nonnegative")
        D, (top, *ints) = _integral([head, *sizes])
        return cls(D, top, tuple(sorted(filter(None, ints), reverse=True)))

    target = property(lambda self: self.head)
    balls = property(lambda self: self.weights)

    def vector(self) -> Vector:
        return ((self.head,) + self.weights
                + (Fraction(0),) * (3 - len(self.sizes)))


@dataclass(frozen=True)
class Verdict:
    """Outcome of a reduction, with the full trace for replay.

    rows is the kernel's trace over the least denominator D, as
    decide_packing makes it, so equal rational traces are equal
    verdicts; trace, terminal and volume_slack, the conserved
    b^2 - sum a_i^2, are Fraction views built when first read.
    failures lists, in canonical order, which criteria broke:
    "negative-entry" when the kernel returned the class of a negative
    terminal entry and "volume" when the squares do not fit.  Feasible
    means neither did.
    """

    feasible: bool
    failures: tuple[str, ...]
    D: int
    rows: tuple[tuple[int, ...], ...]

    @cached_property
    def trace(self) -> tuple[Vector, ...]:
        return _fraction_rows(self.rows, self.D)

    terminal = property(lambda self: self.trace[-1])

    @cached_property
    def volume_slack(self) -> Fraction:
        return Fraction(_slack(self.rows[0]), self.D ** 2)


def _canonical(vec: Sequence[RationalLike]) -> Vector:
    entries = [rational(v) for v in vec]
    if not entries:
        raise DomainError("empty packing vector")
    body = sorted(entries[1:], reverse=True)
    while len(body) < 3:
        body.append(Fraction(0))
    return (entries[0],) + tuple(body)


def defect(vec: Sequence[RationalLike]) -> Fraction:
    v = _canonical(vec)
    return v[1] + v[2] + v[3] - v[0]


def cremona_step(vec: Sequence[RationalLike]) -> Vector:
    """Apply one defect move to a non-reduced vector."""
    v = _canonical(vec)
    d = v[1] + v[2] + v[3] - v[0]
    if d <= 0:
        raise DomainError("vector is already reduced")
    moved = (v[0] - d, v[1] - d, v[2] - d, v[3] - d) + v[4:]
    return _canonical(moved)


def _slack(v: Sequence[int]) -> int:
    return v[0] * v[0] - sum(a * a for a in v[1:])


def _reduce(head: int, balls: Sequence[int],
            rows: Optional[list] = None) -> Optional[HomologyClass]:
    """None when (head; balls) reduces with no negative entry, else the
    class C of the negative terminal entry (the head if negative, else
    the least size), pulled back to the input's basis.

    balls are in any order, padded with zeros to three, and ball t
    stands for E_t: C = c_0 L + sum c_t E_t pairs with the input as
    head c_0 + sum balls[t] c_t, the negative entry.  rows, if a list,
    gets each row (head, *sizes descending), the input's first.  Once
    a move is due, the body keeps a << shift | t ascending, so the three
    largest sit at the end, where a move re-inserts them by bisection;
    the walk back adds (C.R) R per move, R = L - E_i - E_j - E_k.  The
    head drops by at least one per move and a negative head is a
    negative entry, so this ends.
    """
    balls = [*balls] + [0] * (3 - len(balls))
    vector = sorted(balls, reverse=True)
    if rows is not None:
        rows.append((head, *vector))
    if min(head, vector[-1]) >= 0 and sum(vector[:3]) <= head:
        return None  # reduced as it stands: no labels needed
    shift = len(balls).bit_length()
    body = sorted([a << shift | t for t, a in enumerate(balls)])
    moves = []
    while head >= 0 and body[0] >= 0:
        d = (body[-1] >> shift) + (body[-2] >> shift) + (body[-3] >> shift)
        d -= head
        if d <= 0:
            return None
        head -= d
        moves.append(body[-3:])
        del body[-3:]
        d <<= shift
        for x in moves[-1]:
            insort(body, x - d)
        if rows is not None:
            rows.append((head, *[x >> shift for x in reversed(body)]))
    mask = (1 << shift) - 1
    c0, c = 0, [0] * len(balls)
    if head < 0:
        c0 = 1
    else:
        c[body[0] & mask] = 1
    for i, j, k in reversed(moves):
        i, j, k = i & mask, j & mask, k & mask
        t = c0 + c[i] + c[j] + c[k]
        c0 += t
        c[i] -= t
        c[j] -= t
        c[k] -= t
    return HomologyClass(c0, tuple(c))


def _integral(vec: Sequence[Fraction]) -> tuple[int, list[int]]:
    """Common denominator D of vec and the integer vector D * vec."""
    D = lcm(*(v.denominator for v in vec))
    return D, [v.numerator * (D // v.denominator) for v in vec]


def _fraction_rows(rows: Sequence, D: int) -> tuple[Vector, ...]:
    frac = _fractions(D, chain.from_iterable(rows))
    return tuple(tuple(map(frac.__getitem__, row)) for row in rows)


def cremona_reduce(vec: Sequence[RationalLike]) -> tuple[Vector, ...]:
    """Trace of vectors from the input down to a terminal one: reduced
    (defect <= 0) or containing a negative entry."""
    D, (head, *balls) = _integral(_canonical(vec))
    rows = []
    _reduce(head, balls, rows)
    return _fraction_rows(rows, D)


def decide_packing(instance: PackingInstance) -> Verdict:
    """Reduce the instance vector and read off feasibility."""
    D, head, balls = instance.D, instance.top, instance.sizes
    g = gcd(D, head, *balls)
    if g > 1:  # over the least D, equal rational traces are equal verdicts
        D, head, balls = D // g, head // g, [a // g for a in balls]
    rows = []
    negative = _reduce(head, balls, rows) is not None
    slack = _slack(rows[0])
    # every move conserves the slack, so one check covers the whole run
    assert len(rows) == 1 or _slack(rows[-1]) == slack
    failures = []
    if negative:
        failures.append("negative-entry")
    if slack < 0:
        failures.append("volume")
    return Verdict(not failures, tuple(failures), D, tuple(rows))


def capacity_obstruction(instance: PackingInstance, K: int) -> Optional[int]:
    """First k <= K where the balls' capacities exceed the target's.

    A necessary test only: None means nothing found up to K, a hit
    certifies the packing impossible.  The balls' union is concave_caps
    of their expansion, so capacities.MAX_STAIRCASE_CELLS bounds K.
    """
    if not instance.sizes:
        return None
    # the union runs over the instance's D, as does the target staircase
    union = concave_caps(WeightExpansion(instance.D, None, instance.sizes), K)
    target = _ball_ints(instance.top, K)
    return next((k for k, (a, b) in enumerate(zip(union.ints, target))
                 if a > b), None)


def _scaled_ints(instance: PackingInstance,
                 scaled: Union[WeightExpansion, Sequence[RationalLike]],
                 ) -> list[int]:
    """The scaled balls as integers over the instance's D."""
    if isinstance(scaled, WeightExpansion):
        D, ints = scaled.D, scaled.sizes
    else:
        D, (_, *ints) = _integral([Fraction(1, instance.D),
                                   *map(rational, scaled)])
    # a size that needs a finer denominator than the instance's is no
    # ball of it
    if instance.D % D:
        raise DomainError("scaled sizes are not among the instance's balls")
    if not ints or min(ints) <= 0:
        raise DomainError("scaled ball sizes must be positive and nonempty")
    return [a * (instance.D // D) for a in ints]


def optimal_scale(instance: PackingInstance,
                  scaled: Union[WeightExpansion, Sequence[RationalLike]],
                  precision: RationalLike,
                  ) -> tuple[Fraction, Fraction]:
    """Bracket the supremal factor t at which t*scaled still packs.

    scaled must be a sub-multiset of the instance's balls, given as
    rationals or as an expansion whose D divides the instance's; the
    others stay fixed.  Returns exact rationals (lo, hi) with lo
    feasible, hi infeasible and hi - lo <= precision: the bracket of
    plain bisection from [0, 1], or from the doubling [2^j, 2^(j+1)]
    when 1 is feasible.  The problem must be feasible with the scaled
    balls shrunk away, else there is no bracket at all.
    """
    prec = rational(precision)
    if prec <= 0:
        raise DomainError("precision must be positive")
    a = _scaled_ints(instance, scaled)
    rest = Counter(instance.sizes)
    rest.subtract(a)
    if any(c < 0 for c in rest.values()):
        raise DomainError("scaled sizes are not among the instance's balls")
    b, f = instance.top, list(rest.elements())
    # the slack at t = p/q is q^2 (b^2 - sum f^2) - p^2 sum a^2
    fixed_slack = b * b - sum(x * x for x in f)
    scaled_squares = sum(x * x for x in a)
    if fixed_slack < 0 or _reduce(b, [0] * len(a) + f) is not None:
        raise DomainError("infeasible already at scale zero")
    # every t > cap_n/cap_d is infeasible (1/0: none known yet); once
    # exact, the cap is itself feasible and so the supremum
    cap_n, cap_d, exact = 1, 0, False
    lp, lq = 0, 1  # the last scale a probe found feasible

    def blocked(p: int, q: int) -> bool:
        """Whether t = p/q is infeasible; a class read lowers the cap."""
        nonlocal cap_n, cap_d
        if q * q * fixed_slack < p * p * scaled_squares:
            return True
        C = _reduce(q * b, [p * x for x in a] + [q * x for x in f])
        if C is None:
            return False
        # w_t(C) = const + t lin, negative at t = p/q
        const = b * C.L + sum(x * e for x, e in zip(f, C.E[len(a):]))
        lin = sum(x * e for x, e in zip(a, C.E))
        assert q * const + p * lin < 0
        if lin < 0:  # its threshold lies below p/q, so below the cap
            cap_n, cap_d = const, -lin
        return True

    def feasible(p: int, q: int) -> bool:
        nonlocal exact, lp, lq
        if p * cap_d > cap_n * q:
            return False
        if exact:
            return True
        if not blocked(p, q):
            lp, lq = p, q
            return True
        # probe the least threshold: if it is feasible, it is the supremum
        while cap_d and not exact:
            n, d = cap_n, cap_d
            if n * lq == lp * d or not blocked(n, d):
                exact = True
            elif (n, d) == (cap_n, cap_d):
                break  # blocked by volume, or by no lower threshold
        return False

    # plain bisection's bracket on dyadic integers lo/2^e, hi/2^e
    if feasible(1, 1):
        lo, hi = 1, 2
        while feasible(hi, 1):
            lo, hi = hi, 2 * hi  # the volume bound ends this doubling
    else:
        lo, hi = 0, 1
    num, den, e = prec.numerator, prec.denominator, 0
    while (hi - lo) * den > num << e:
        mid, lo, hi, e = lo + hi, 2 * lo, 2 * hi, e + 1
        if feasible(mid, 1 << e):
            lo = mid
        else:
            hi = mid
    return Fraction(lo, 1 << e), Fraction(hi, 1 << e)
