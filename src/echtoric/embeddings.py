"""Deciding when a concave toric domain fits inside a convex one.

The decision runs through weights: the source contributes its weight
balls, the target contributes its head minus its own weight balls, and
the embedding exists exactly when all those balls pack into the head
ball together.  Capacity sequences give an independent necessary test
that is reported alongside for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .capacities import CapacitySeq, concave_caps, convex_caps
from .domains import ToricDomain
from .errors import DomainError
from .geometry import RationalLike, rational
from .packing import PackingInstance, Verdict, decide_packing, optimal_scale
from .weights import DEFAULT_MAX_NODES, concave_weights, convex_weights


@dataclass(frozen=True)
class EmbeddingProblem:
    source: ToricDomain
    target: ToricDomain

    def __post_init__(self) -> None:
        if self.source.kind != "concave":
            raise DomainError("embedding sources must be concave domains")
        if self.target.kind != "convex":
            raise DomainError("embedding targets must be convex domains")


def _instance_and_source(problem: EmbeddingProblem, max_nodes: int,
                         ) -> tuple[PackingInstance, tuple[Fraction, ...]]:
    """The packing instance and the source's weight balls within it."""
    src, _ = concave_weights(problem.source, max_nodes)
    tgt, _ = convex_weights(problem.target, max_nodes)
    assert tgt.head is not None
    return PackingInstance(tgt.head, src.weights + tgt.weights), src.weights


def reduce_to_packing(problem: EmbeddingProblem,
                      max_nodes: int = DEFAULT_MAX_NODES) -> PackingInstance:
    """Ball instance equivalent to the embedding question.

    The source contributes its weight balls, the target its head as the
    all-enclosing ball minus its own weight balls, which join the list
    of balls to pack.
    """
    return _instance_and_source(problem, max_nodes)[0]


def decide_embedding(problem: EmbeddingProblem,
                     max_nodes: int = DEFAULT_MAX_NODES) -> Verdict:
    return decide_packing(reduce_to_packing(problem, max_nodes))


@dataclass(frozen=True)
class ReportRow:
    k: int
    source_value: Fraction
    target_value: Fraction
    ok: bool
    certified: bool


@dataclass(frozen=True)
class CapacityReport:
    """Pointwise capacity comparison c_k(source) <= c_k(target)."""

    rows: tuple[ReportRow, ...]
    source_seq: CapacitySeq
    target_seq: CapacitySeq

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def first_violation(self) -> Optional[int]:
        for r in self.rows:
            if not r.ok:
                return r.k
        return None


def capacity_report(problem: EmbeddingProblem, K: int,
                    L: Optional[int] = None,
                    max_nodes: int = DEFAULT_MAX_NODES) -> CapacityReport:
    src = concave_caps(problem.source, K, max_nodes)
    tgt = convex_caps(problem.target, K, L, max_nodes)
    rows = tuple(
        ReportRow(k, src[k], tgt[k], src[k] <= tgt[k],
                  src.certified and tgt.certified)
        for k in range(K + 1))
    return CapacityReport(rows, src, tgt)


def optimal_embedding_scale(problem: EmbeddingProblem,
                            precision: RationalLike,
                            max_nodes: int = DEFAULT_MAX_NODES,
                            ) -> tuple[Fraction, Fraction]:
    """Bracket the largest factor by which the source still embeds.

    Scaling a domain scales every weight alike, so the search scales
    the source's balls inside the reduced instance and keeps the
    target's own balls fixed.
    """
    instance, scaled = _instance_and_source(problem, max_nodes)
    return optimal_scale(instance, scaled, rational(precision))
