import random
from fractions import Fraction

import pytest

from echtoric import (DomainError, EmbeddingProblem, LimitError, ToricDomain,
                      capacity_report, decide_embedding,
                      optimal_embedding_scale, reduce_to_packing)

from generators import random_concave

OMEGA1 = ToricDomain.concave([("0", "10/3"), ("2/3", "4/3"),
                              ("4/3", "2/3"), ("7/3", "0")])
OMEGA2 = ToricDomain.convex([(0, 1), (1, 2), (5, 0)])
SQUARE = ToricDomain.convex([(0, 1), (1, 1), (1, 0)])
E12_CONVEX = ToricDomain.convex([(0, 1), (2, 0)])
F = Fraction


def test_problem_kind_validation():
    with pytest.raises(DomainError):
        EmbeddingProblem(OMEGA2, OMEGA2)
    with pytest.raises(DomainError):
        EmbeddingProblem(OMEGA1, OMEGA1)
    EmbeddingProblem(OMEGA1, OMEGA2)  # the right way round is fine


def test_reduction_reference():
    inst = reduce_to_packing(EmbeddingProblem(OMEGA1, OMEGA2))
    assert inst.head == 5
    assert (inst.head, *inst.weights) == (5, 3, 2, 2, 1, F(2, 3), F(2, 3),
                                          F(1, 3), F(1, 3))


def test_reduction_simplices():
    ball = ToricDomain.ball
    inst = reduce_to_packing(EmbeddingProblem(ball(1), ball(1, kind="convex")))
    assert (inst.head, *inst.weights) == (1, 1)
    inst = reduce_to_packing(EmbeddingProblem(
        ToricDomain.ellipsoid(1, 2), SQUARE))
    assert (inst.head, *inst.weights) == (2, 1, 1, 1, 1)


def test_decide_reference_pair():
    v = decide_embedding(EmbeddingProblem(OMEGA1, OMEGA2))
    assert v.feasible
    assert len(v.trace) == 2
    assert v.terminal == (3, 1, 1, F(2, 3), F(2, 3), F(1, 3), F(1, 3), 0, 0)


def test_decide_infeasible_by_size():
    v = decide_embedding(EmbeddingProblem(ToricDomain.ball(2),
                                          ToricDomain.ball(1, kind="convex")))
    assert not v.feasible
    assert "volume" in v.failures


def test_capacity_report_reference():
    rep = capacity_report(EmbeddingProblem(OMEGA1, OMEGA2), 5)
    assert rep.all_ok and rep.first_violation() is None
    src, tgt = rep.source.values, rep.target.values
    assert src[0] == 0 and tgt[0] == 0
    assert src[1] == 2
    assert src[5] == F(16, 3)
    assert tgt[5] == 7
    assert rep.oks == (True,) * 6


def test_capacity_report_identity():
    prob = EmbeddingProblem(ToricDomain.ball(1),
                            ToricDomain.ball(1, kind="convex"))
    rep = capacity_report(prob, 6)
    assert rep.source.values == rep.target.values
    assert all(rep.oks)


def test_capacity_report_violation():
    prob = EmbeddingProblem(ToricDomain.ball(2),
                            ToricDomain.ball(1, kind="convex"))
    rep = capacity_report(prob, 4)
    assert not rep.all_ok
    assert rep.first_violation() == 1
    assert rep.source.values[1] == 2 and rep.target.values[1] == 1
    assert not rep.oks[1]


def test_square_and_wide_triangle_agree():
    # both targets reduce to the same instance, so verdicts must match
    rng = random.Random(7)
    for _ in range(10):
        src = random_concave(rng)
        a = reduce_to_packing(EmbeddingProblem(src, SQUARE))
        b = reduce_to_packing(EmbeddingProblem(src, E12_CONVEX))
        assert a == b
        assert decide_embedding(EmbeddingProblem(src, SQUARE)) == \
            decide_embedding(EmbeddingProblem(src, E12_CONVEX))


def test_feasibility_survives_shrinking():
    rng = random.Random(13)
    seen = 0
    for _ in range(20):
        src = random_concave(rng)
        prob = EmbeddingProblem(src, OMEGA2)
        if decide_embedding(prob).feasible:
            seen += 1
            half = EmbeddingProblem(src.scale(F(1, 2)), OMEGA2)
            assert decide_embedding(half).feasible
    assert seen > 0


def test_scale_search_reference():
    lo, hi = optimal_embedding_scale(EmbeddingProblem(OMEGA1, OMEGA2),
                                     F(1, 100))
    assert lo == 1
    assert hi == F(129, 128)


def test_scale_search_simplices():
    ball = ToricDomain.ball
    lo, hi = optimal_embedding_scale(
        EmbeddingProblem(ball(1), ball(2, kind="convex")), F(1, 128))
    assert (lo, hi) == (2, F(257, 128))
    lo, hi = optimal_embedding_scale(
        EmbeddingProblem(ball(1), ball(1, kind="convex")), F(1, 128))
    assert (lo, hi) == (1, F(129, 128))


def test_scale_bracket_matches_direct_decisions():
    rng = random.Random(29)
    for _ in range(6):
        src = random_concave(rng, max_edges=3)
        prob = EmbeddingProblem(src, OMEGA2)
        lo, hi = optimal_embedding_scale(prob, F(1, 16))
        assert decide_embedding(
            EmbeddingProblem(src.scale(lo), OMEGA2)).feasible
        assert not decide_embedding(
            EmbeddingProblem(src.scale(hi), OMEGA2)).feasible


def test_node_budget_propagates():
    with pytest.raises(LimitError):
        EmbeddingProblem(OMEGA1, OMEGA2, max_nodes=2)
