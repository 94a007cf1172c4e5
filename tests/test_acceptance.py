"""End-to-end acceptance checks, one test per shipped guarantee.

Each test carries its own wall clock budget; all equalities are exact
rational comparisons, never approximate.
"""

import json
import random
import time
from fractions import Fraction

from echtoric import (PackingInstance, EmbeddingProblem, ToricDomain, area,
                      c1, capacity_obstruction, concave_caps,
                      concave_weights, convex_caps, convex_weights,
                      count_convex, cremona_step, decide_embedding,
                      decide_packing, ell_convex, intersection, load_domain,
                      optimal_embedding_scale, oracle_convex_caps_upto,
                      sphere_chain_concave, sphere_chain_convex)

from generators import random_concave, random_convex, random_instance

OMEGA1 = ToricDomain.concave([("0", "10/3"), ("2/3", "4/3"),
                              ("4/3", "2/3"), ("7/3", "0")])
OMEGA2 = ToricDomain.convex([(0, 1), (1, 2), (5, 0)])
F = Fraction


def test_criterion_1_golden_weight_expansions():
    start = time.perf_counter()
    exp, _ = concave_weights(OMEGA1)
    assert exp.head is None
    assert sorted(exp.weights, reverse=True) == [2, F(2, 3), F(2, 3),
                                                 F(1, 3), F(1, 3)]
    exp, _ = convex_weights(OMEGA2)
    assert exp.head == 5
    assert sorted(exp.weights, reverse=True) == [3, 2, 1]
    assert time.perf_counter() - start < 1


def test_criterion_2_golden_packing_and_embedding():
    start = time.perf_counter()
    verdict = decide_packing(PackingInstance.of(
        5, (3, 2, 2, 1, F(2, 3), F(2, 3), F(1, 3), F(1, 3))))
    assert verdict.feasible
    assert verdict.trace[0] == (5, 3, 2, 2, 1, F(2, 3), F(2, 3), F(1, 3),
                                F(1, 3))
    for cur, nxt in zip(verdict.trace, verdict.trace[1:]):
        assert cremona_step(cur) == nxt  # the certificate replays
    assert verdict.terminal == verdict.trace[-1]
    assert decide_embedding(EmbeddingProblem(OMEGA1, OMEGA2)).feasible
    assert time.perf_counter() - start < 1


def test_criterion_3_embedding_scale_is_optimal():
    start = time.perf_counter()
    problem = EmbeddingProblem(OMEGA1, OMEGA2)
    lo, hi = optimal_embedding_scale(problem, F(1, 100))
    assert lo == 1
    assert 1 < hi <= F(101, 100)
    assert decide_embedding(
        EmbeddingProblem(OMEGA1.scale(1), OMEGA2)).feasible
    assert not decide_embedding(
        EmbeddingProblem(OMEGA1.scale(F(101, 100)), OMEGA2)).feasible
    assert time.perf_counter() - start < 5


def test_criterion_4_square_and_triangle_targets_coincide():
    start = time.perf_counter()
    square = ToricDomain.convex([(0, 1), (1, 1), (1, 0)])
    triangle = ToricDomain.convex([(0, 1), (2, 0)])
    exp_s, _ = convex_weights(square)
    exp_t, _ = convex_weights(triangle)
    assert exp_s.head == exp_t.head == 2
    assert sorted(exp_s.weights) == sorted(exp_t.weights) == [1, 1]
    rng = random.Random(2024)
    for _ in range(25):
        src = random_concave(rng)
        a = decide_embedding(EmbeddingProblem(src, square))
        b = decide_embedding(EmbeddingProblem(src, triangle))
        assert a.feasible == b.feasible
        assert a.trace == b.trace
    assert time.perf_counter() - start < 30


def test_criterion_5_capacity_formula_matches_path_oracle(data_dir):
    start = time.perf_counter()
    # the witnesses the oracle printed before its per-vertex step tables
    golden = {e["name"]: e["caps"] for e in json.loads(
        (data_dir / "oracle_golden_k12.json").read_text())}
    square = ToricDomain.convex([(0, 1), (1, 1), (1, 0)])
    delta2 = ToricDomain.convex([(0, 2), (2, 0)])
    for name, dom in (("square", square), ("delta2", delta2),
                      ("omega2", OMEGA2)):
        seq = convex_caps(convex_weights(dom)[0], 12)
        assert seq.certified
        oracle = oracle_convex_caps_upto(dom, 12)
        for k, (value, witness) in enumerate(oracle):
            assert seq[k] == value
            assert count_convex(witness) == k + 1
            assert ell_convex(dom, witness) == value
            assert ([list(p) for p in witness.ints]
                    == golden[name][k][1]), (name, k)
    # values at full size, k up to 20, on every reference target
    reference = json.loads((data_dir / "oracle_golden_k6.json").read_text())
    for name in sorted(reference):
        dom = load_domain(data_dir / f"{name}.json")
        seq = convex_caps(convex_weights(dom)[0], 20)
        for k, (value, witness) in enumerate(oracle_convex_caps_upto(dom, 20)):
            assert seq[k] == value, (name, k)
            assert count_convex(witness) == k + 1
            assert ell_convex(dom, witness) == value
    assert time.perf_counter() - start < 20


def test_criterion_6_ellipsoid_capacities_are_the_weighted_multiset():
    start = time.perf_counter()
    for p, q in ((1, 1), (1, 2), (2, 3), (3, 7)):
        dom = ToricDomain.ellipsoid(p, q)
        seq = concave_caps(concave_weights(dom)[0], 50)
        brute = sorted(p * m + q * n
                       for m in range(51) for n in range(51 - m))[:51]
        assert list(seq.values) == brute
    assert time.perf_counter() - start < 10


def test_criterion_7_area_identities_on_random_domains():
    start = time.perf_counter()
    rng = random.Random(77)
    for _ in range(100):
        dom = random_concave(rng)
        exp, _ = concave_weights(dom)
        assert sum(w * w for w in exp.weights) == 2 * dom.area()
        dom = random_convex(rng)
        exp, _ = convex_weights(dom)
        assert exp.head ** 2 - sum(w * w for w in exp.weights) == \
            2 * dom.area()
    assert time.perf_counter() - start < 30


def test_criterion_8_sphere_chain_goldens_and_invariants():
    start = time.perf_counter()
    _, tree = concave_weights(OMEGA1)
    _, decomp = convex_weights(OMEGA2)
    source, target = sphere_chain_concave(tree), sphere_chain_convex(decomp)
    assert [c.E for c in source.classes] == [
        (1, 0, 0, 0, 0), (-1, 1, 0, 0, 0), (0, -1, 1, -1, -1),
        (0, 0, 0, 1, 0), (0, 0, 0, -1, 1)]
    assert [(c.L, c.Ehat) for c in target.classes] == [
        (0, (1, 0, 0)), (0, (-1, 1, -1)), (0, (0, 0, 1)), (1, (0, -1, -1))]
    # the form: the target's head on L, the source's weights on E and
    # the target's other weights on Ehat, each in chain order
    i = target.line_index
    head, hats = target.head, target.weights[:i] + target.weights[i + 1:]
    assert (head, source.weights, hats) == (
        5, (F(2, 3), F(2, 3), 2, F(1, 3), F(1, 3)), (1, 3, 2))
    assert [area(c, head, source.weights, hats)
            for c in source.classes + target.classes] == [
        F(2, 3), 0, F(2, 3), F(1, 3), 0, 1, 0, 2, 0]
    # the chain invariants on both reference chains and on 15 concave
    # and 15 convex random domains
    rng = random.Random(8)
    chains = [source, target]
    chains += [sphere_chain_concave(concave_weights(random_concave(rng))[1])
               for _ in range(15)]
    chains += [sphere_chain_convex(convex_weights(random_convex(rng))[1])
               for _ in range(15)]
    for chain in chains:
        cs = chain.classes
        assert len(cs) == len(chain.weights)
        for i, a in enumerate(cs):
            assert intersection(a, a) <= -1
            assert c1(a) == intersection(a, a) + 2
            for j in range(i + 1, len(cs)):
                assert intersection(a, cs[j]) == (1 if j == i + 1 else 0)
        if chain.line_index is not None:
            assert [a.L for a in cs] == [int(i == chain.line_index)
                                         for i in range(len(cs))]
            assert chain.weights[chain.line_index] == chain.head
    assert time.perf_counter() - start < 1


def test_criterion_9_deciders_never_contradict():
    start = time.perf_counter()
    rng = random.Random(99)
    feasible_seen = infeasible_seen = 0
    for _ in range(50):
        inst = random_instance(rng)
        verdict = decide_packing(inst)
        obstruction = capacity_obstruction(inst, 100)
        if verdict.feasible:
            feasible_seen += 1
            assert obstruction is None
        elif obstruction is not None:
            infeasible_seen += 1
        # an infeasible instance with no obstruction below K is allowed
    assert feasible_seen > 0 and infeasible_seen > 0
    assert time.perf_counter() - start < 120
