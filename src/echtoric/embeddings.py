"""Deciding when a concave toric domain fits inside a convex one.

The decision runs through weights: the source contributes its weight
balls, the target contributes its head minus its own weight balls, and
the embedding exists exactly when all those balls pack into the head
ball together.  Capacity sequences give an independent necessary test
that is reported alongside for cross-checking.

An EmbeddingProblem expands both domains once, when it is built, and
keeps the two expansions, sorted integers over their denominators, and
drops the kernel's rows.  reduce_to_packing merges the two sorted runs
over the lcm of the denominators into the packing instance.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional

from .capacities import CapacitySeq, concave_caps, convex_caps
from .domains import ToricDomain
from .errors import DomainError
from .geometry import RationalLike
from .packing import PackingInstance, Verdict, decide_packing, optimal_scale
from .records import Record
from .weights import (DEFAULT_MAX_NODES, WeightExpansion, concave_weights,
                      convex_weights)


class EmbeddingProblem(Record):
    """A concave source and a convex target, each with its expansion.

    max_nodes caps each expansion's count of cuts; LimitError is raised
    here, when the problem is built, if either exceeds it.
    """

    source: ToricDomain
    target: ToricDomain
    max_nodes: int
    source_weights: WeightExpansion
    target_weights: WeightExpansion

    def __init__(self, source: ToricDomain, target: ToricDomain,
                 max_nodes: int = DEFAULT_MAX_NODES) -> None:
        if source.kind != "concave":
            raise DomainError("embedding sources must be concave domains")
        if target.kind != "convex":
            raise DomainError("embedding targets must be convex domains")
        d = self.__dict__
        d["source"] = source
        d["target"] = target
        d["max_nodes"] = max_nodes
        d["source_weights"] = concave_weights(source, max_nodes)[0]
        d["target_weights"] = convex_weights(target, max_nodes)[0]


def reduce_to_packing(problem: EmbeddingProblem) -> PackingInstance:
    """Ball instance equivalent to the embedding question.

    The source contributes its weight balls, the target its head as the
    all-enclosing ball minus its own weight balls, which join the list
    of balls to pack.
    """
    src, tgt = problem.source_weights, problem.target_weights
    D = lcm(src.D, tgt.D)
    s, t = D // src.D, D // tgt.D
    return PackingInstance(D, tgt.top * t, tuple(sorted(
        [a * s for a in src.sizes] + [a * t for a in tgt.sizes],
        reverse=True)))


def decide_embedding(problem: EmbeddingProblem) -> Verdict:
    return decide_packing(reduce_to_packing(problem))


class CapacityReport(Record):
    """Pointwise capacity comparison c_k(source) <= c_k(target), with
    the two sequences compared.

    oks[k] is the comparison at k, made on the integers; the values
    compared are source.values[k] and target.values[k].
    """

    source: CapacitySeq
    target: CapacitySeq
    oks: tuple[bool, ...]

    def __init__(self, source: CapacitySeq, target: CapacitySeq,
                 oks: tuple[bool, ...]) -> None:
        d = self.__dict__
        d["source"] = source
        d["target"] = target
        d["oks"] = oks

    @property
    def all_ok(self) -> bool:
        return all(self.oks)

    def first_violation(self) -> Optional[int]:
        return None if self.all_ok else self.oks.index(False)


def capacity_report(problem: EmbeddingProblem, K: int) -> CapacityReport:
    src = concave_caps(problem.source_weights, K)
    tgt = convex_caps(problem.target_weights, K)
    return CapacityReport(src, tgt, tuple(
        a * tgt.D <= b * src.D for a, b in zip(src.ints, tgt.ints)))


def optimal_embedding_scale(problem: EmbeddingProblem,
                            precision: RationalLike,
                            ) -> tuple[Fraction, Fraction]:
    """Bracket the largest factor by which the source still embeds.

    Scaling a domain scales every weight alike, so the search scales
    the source's balls inside the reduced instance and keeps the
    target's own balls fixed.
    """
    return optimal_scale(reduce_to_packing(problem), problem.source_weights,
                         precision)
