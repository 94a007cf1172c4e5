"""Ball packing decisions by repeated defect moves.

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
PackingInstance.of clears them from rationals.  The moves run on those
integers in one kernel, and only the trace rows a caller gets back are
turned into fractions.  A scale search probes t = p/q on the same
integers (q*b; p*a_i for the scaled balls, q*a_j for the fixed ones):
a positive factor changes neither the sign of a defect, nor which
entries are negative, nor the sign of the slack.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Optional, Sequence

from .capacities import ball_caps, concave_caps
from .errors import DomainError
from .geometry import RationalLike, rational
from .weights import WeightExpansion

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

    failures lists, in canonical order, which of the two criteria broke:
    "negative-entry" when the reduction produced a negative size and
    "volume" when the squares do not fit.  Feasible means neither did.
    volume_slack is the conserved quantity b^2 - sum a_i^2.
    """

    feasible: bool
    trace: tuple[Vector, ...]
    failures: tuple[str, ...]
    terminal: Vector
    volume_slack: Fraction


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


def _reduce(v: list[int]) -> list[tuple[int, ...]]:
    """Trace of defect moves on a canonical integer vector.

    v is (b; a_1, ..., a_n) with the sizes sorted nonincreasing and at
    least three of them.  The head drops by at least one per move, and
    a negative head already counts as a negative entry, so this ends.
    """
    slack = _slack(v)
    trace = [tuple(v)]
    while min(v[0], v[-1]) >= 0:
        d = v[1] + v[2] + v[3] - v[0]
        if d <= 0:
            break
        head = v[0] - d
        assert head < v[0]
        v = [head] + sorted([v[1] - d, v[2] - d, v[3] - d] + v[4:],
                            reverse=True)
        assert _slack(v) == slack
        trace.append(tuple(v))
    return trace


def _integral(vec: Sequence[Fraction]) -> tuple[int, list[int]]:
    """Common denominator D of vec and the integer vector D * vec."""
    D = lcm(*(v.denominator for v in vec))
    return D, [v.numerator * (D // v.denominator) for v in vec]


def _fraction_rows(rows: list[tuple[int, ...]], D: int) -> tuple[Vector, ...]:
    # entries repeat across rows, so build each Fraction once
    frac = {n: Fraction(n, D) for n in set(chain.from_iterable(rows))}
    return tuple(tuple(map(frac.__getitem__, row)) for row in rows)


def cremona_reduce(vec: Sequence[RationalLike]) -> tuple[Vector, ...]:
    """Trace of vectors from the input down to a terminal one.

    Terminal means reduced (defect <= 0) or containing a negative
    entry.  Rational inputs always terminate: the head drops by at
    least one grid unit of the common denominator per move and a
    negative head already counts as a negative entry.
    """
    D, v = _integral(_canonical(vec))
    return _fraction_rows(_reduce(v), D)


def decide_packing(instance: PackingInstance) -> Verdict:
    """Reduce the instance vector and read off feasibility."""
    v = [instance.top, *instance.sizes] + [0] * (3 - len(instance.sizes))
    rows = _reduce(v)
    failures = []
    if min(rows[-1]) < 0:
        failures.append("negative-entry")
    slack = _slack(v)
    if slack < 0:
        failures.append("volume")
    trace = _fraction_rows(rows, instance.D)
    return Verdict(
        feasible=not failures,
        trace=trace,
        failures=tuple(failures),
        terminal=trace[-1],
        volume_slack=Fraction(slack, instance.D ** 2),
    )


def capacity_obstruction(instance: PackingInstance, K: int) -> Optional[int]:
    """First k <= K where the balls' capacities exceed the target's.

    A necessary test only: None means nothing found up to K, a hit
    certifies the packing impossible.  The balls' union is concave_caps
    of their expansion, so capacities.MAX_STAIRCASE_CELLS bounds K.
    """
    if not instance.sizes:
        return None
    union = concave_caps(WeightExpansion(instance.D, None, instance.sizes), K)
    target = ball_caps(instance.target, K)
    for k in range(K + 1):
        if union[k] > target[k]:
            return k
    return None


def _scaled_feasible(target: int, scaled: Sequence[int],
                     fixed: Sequence[int], t: Fraction) -> bool:
    """Whether t*scaled and fixed pack into target, all sizes times D.

    The probe reduces the instance at scale t multiplied by
    D * t.denominator, which is integral.
    """
    p, q = t.numerator, t.denominator
    balls = [q * a for a in fixed]
    if p:
        balls += [p * a for a in scaled]
    balls.sort(reverse=True)
    v = [q * target] + balls + [0] * (3 - len(balls))
    return min(_reduce(v)[-1]) >= 0 and _slack(v) >= 0


def optimal_scale(instance: PackingInstance,
                  scaled: Sequence[RationalLike],
                  precision: RationalLike,
                  ) -> tuple[Fraction, Fraction]:
    """Bracket the supremal factor t at which t*scaled still packs.

    scaled must be a sub-multiset of the instance's balls; the others
    stay fixed.  Returns exact rationals (lo, hi) with lo feasible, hi
    infeasible and hi - lo <= precision.  The problem must be feasible
    with the scaled balls shrunk away, else there is no bracket at all.
    """
    prec = rational(precision)
    if prec <= 0:
        raise DomainError("precision must be positive")
    sizes = [rational(a) for a in scaled]
    if not sizes or any(a.numerator <= 0 for a in sizes):
        raise DomainError("scaled ball sizes must be positive and nonempty")
    # a size that needs a finer denominator than the instance's is no ball
    D, (_, *scaled_ints) = _integral([Fraction(1, instance.D), *sizes])
    remaining = Counter(instance.sizes)
    remaining.subtract(scaled_ints)
    if D != instance.D or any(c < 0 for c in remaining.values()):
        raise DomainError("scaled sizes are not among the instance's balls")
    target, fixed_ints = instance.top, list(remaining.elements())

    def feasible(t: Fraction) -> bool:
        return _scaled_feasible(target, scaled_ints, fixed_ints, t)

    if not feasible(Fraction(0)):
        raise DomainError("infeasible already at scale zero")
    if feasible(Fraction(1)):
        lo, hi = Fraction(1), Fraction(2)
        while feasible(hi):
            lo, hi = hi, hi * 2  # the volume bound ends this doubling
    else:
        lo, hi = Fraction(0), Fraction(1)
    while hi - lo > prec:
        mid = (lo + hi) / 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi
