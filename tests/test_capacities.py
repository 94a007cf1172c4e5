import json
import random
from fractions import Fraction

import pytest

from echtoric import (CapacitySeq, DomainError, ToricDomain, WeightExpansion,
                      ball_caps, concave_caps, concave_weights, contains,
                      convex_caps, convex_horizon, convex_weights,
                      ellipsoid_caps, load_domain, seq_leq, seq_sum,
                      seq_sum_many)
from echtoric.capacities import _lower, _run_starts

from generators import random_concave, random_convex

F = Fraction


# -- reference computations, kept deliberately naive ------------------------

def brute_ellipsoid(a, b, K):
    vals = sorted(a * m + b * n
                  for m in range(K + 1) for n in range(K + 1 - m))
    return vals[:K + 1]


def brute_sum(S, T, K):
    return [max(S[i] + T[k - i]
                for i in range(max(0, k - len(T) + 1), min(k, len(S) - 1) + 1))
            for k in range(K + 1)]


def brute_sub(S, T, L, K):
    return [min(S[k + l] - T[l] for l in range(L + 1)) for k in range(K + 1)]


def kernel_sub(S, T, L, K):
    """The kernel's complement min over l <= L: l = 0, then the run
    starts of T up to L."""
    s, t = list(S), list(T)
    return _lower([x - t[0] for x in s[:K + 1]], s, t,
                  _run_starts(t[:L + 1]))


def test_ball_caps_against_enumeration():
    assert list(ball_caps(1, 12).values) == brute_ellipsoid(1, 1, 12)
    assert list(ball_caps(F(2, 3), 9).values) == brute_ellipsoid(
        F(2, 3), F(2, 3), 9)
    assert ball_caps(1, 5).values == (0, 1, 1, 2, 2, 2)


def test_ellipsoid_caps_against_enumeration():
    for a, b in [(1, 2), (2, 3), (F(3, 2), F(5, 3)), (3, 7)]:
        assert list(ellipsoid_caps(a, b, 20).values) == brute_ellipsoid(a, b, 20)


def test_ellipsoid_caps_symmetry_and_scaling():
    K = 15
    assert ellipsoid_caps(2, 3, K).values == ellipsoid_caps(3, 2, K).values
    lam = F(5, 7)
    scaled = ellipsoid_caps(2 * lam, 3 * lam, K)
    assert scaled.values == tuple(lam * v for v in ellipsoid_caps(2, 3, K).values)


def test_seq_sum_matches_brute_force():
    rng = random.Random(3)
    for _ in range(20):
        S = ball_caps(F(rng.randint(1, 9), rng.randint(1, 3)), 15)
        T = ellipsoid_caps(rng.randint(1, 4), rng.randint(1, 4), 15)
        got = seq_sum(S, T, 15)
        assert list(got.values) == brute_sum(S.values, T.values, 15)
        assert got.certified


def test_seq_sum_many_is_order_independent():
    seqs = [ball_caps(a, 12) for a in (2, F(2, 3), F(2, 3), F(1, 3))]
    forward = seq_sum_many(seqs, 12)
    backward = seq_sum_many(list(reversed(seqs)), 12)
    assert forward.values == backward.values


def test_concave_caps_is_weight_ball_union():
    omega1 = ToricDomain.concave([("0", "10/3"), ("2/3", "4/3"),
                                  ("4/3", "2/3"), ("7/3", "0")])
    seq = concave_caps(concave_weights(omega1)[0], 6)
    assert seq[0] == 0
    assert seq[1] == 2  # the largest weight ball dominates at k = 1
    union = seq_sum_many([ball_caps(w, 6) for w in
                          (2, F(2, 3), F(2, 3), F(1, 3), F(1, 3))], 6)
    assert seq.values == union.values


def test_concave_caps_of_ellipsoid_triangles():
    for p, q in [(1, 1), (1, 2), (2, 3)]:
        tri = ToricDomain.ellipsoid(p, q)
        assert concave_caps(concave_weights(tri)[0], 25).values == \
            tuple(brute_ellipsoid(p, q, 25))


def test_convex_caps_reference_values():
    square = ToricDomain.convex([(0, 1), (1, 1), (1, 0)])
    assert convex_caps(convex_weights(square)[0], 3).values == (0, 1, 2, 2)
    delta2 = ToricDomain.convex([(0, 2), (2, 0)])
    assert convex_caps(convex_weights(delta2)[0], 3).values == (0, 2, 2, 4)
    assert convex_caps(convex_weights(delta2)[0], 10).values == \
        ball_caps(2, 10).values


def test_convex_caps_wide_triangle_equals_ellipsoid():
    tri = ToricDomain.convex([(0, 1), (2, 0)])
    got = convex_caps(convex_weights(tri)[0], 20)
    assert got.values == ellipsoid_caps(1, 2, 20).values
    assert got.certified


def test_capacity_monotonicity_under_containment():
    rng = random.Random(19)
    for _ in range(8):
        dom = random_concave(rng)
        inner = dom.scale(F(3, 4))
        assert contains(dom, inner)
        assert seq_leq(concave_caps(concave_weights(inner)[0], 8),
                       concave_caps(concave_weights(dom)[0], 8))
    for _ in range(8):
        dom = random_convex(rng)
        inner = dom.scale(F(3, 4))
        assert seq_leq(convex_caps(convex_weights(inner)[0], 8),
                       convex_caps(convex_weights(dom)[0], 8))


def test_capacity_scaling_random():
    rng = random.Random(29)
    for _ in range(6):
        dom = random_concave(rng)
        lam = F(rng.randint(1, 5), rng.randint(1, 3))
        base = concave_caps(concave_weights(dom)[0], 8)
        scaled = concave_caps(concave_weights(dom.scale(lam))[0], 8)
        assert scaled.values == tuple(lam * v for v in base.values)
    for _ in range(6):
        dom = random_convex(rng)
        lam = F(rng.randint(1, 3), rng.randint(3, 4))
        base = convex_caps(convex_weights(dom)[0], 8)
        scaled = convex_caps(convex_weights(dom.scale(lam))[0], 8)
        assert base.certified and scaled.certified
        assert scaled.values == tuple(lam * v for v in base.values)


def test_capacity_seq_container_behaviour():
    seq = CapacitySeq((0, 1, 2))
    assert len(seq) == 3 and seq.horizon == 2 and seq[2] == 2
    cut = seq.truncate(1)
    assert cut.values == (0, 1)
    assert seq_leq(cut, cut)
    assert seq.truncate(0).values == (0,)
    for K in (-1, -3):
        with pytest.raises(DomainError, match="K must be nonnegative"):
            ball_caps(1, 10).truncate(K)
    with pytest.raises(DomainError, match="cannot extend"):
        seq.truncate(3)


OMEGA1 = ToricDomain.concave([("0", "10/3"), ("2/3", "4/3"),
                              ("4/3", "2/3"), ("7/3", "0")])
# c_0..c_20 of OMEGA2; they agree with the lattice-path oracle for k <= 9
OMEGA2 = ToricDomain.convex([(0, 1), (1, 2), (5, 0)])
OMEGA2_VALUES = tuple(F(v) for v in (
    0, 2, 4, 5, 6, 7, 8, 9, 10, 11, 11, 12, 13, 13, 14, 15, 15, 16, 16,
    17, 17))


def test_convex_caps_scaling_full_size():
    # the complement horizon depends on the shape alone, so every scale
    # runs the min out to the same l
    for s in (1, 2, 3, 4, 12):
        expansion = convex_weights(OMEGA2.scale(s))[0]
        got = convex_caps(expansion, 20)
        assert got.certified
        assert got.values == tuple(s * v for v in OMEGA2_VALUES)
        assert convex_horizon(expansion, 20) == \
            convex_horizon(convex_weights(OMEGA2)[0], 20)


def complement_terms(expansion, K, n):
    """Rows k <= K of S_(k+l) - T_l for l <= n: the head ball's
    staircase S less the union T of the weight balls."""
    S = ball_caps(expansion.head, K + n).values
    T = seq_sum_many([ball_caps(w, n) for w in expansion.weights], n).values
    return [[S[k + l] - T[l] for l in range(n + 1)] for k in range(K + 1)]


REFERENCE_TARGETS = ("delta1", "delta2", "e12_convex", "omega2", "overhang",
                     "square")


def test_convex_horizon_is_a_proof(data_dir):
    # the min over l <= 3 max(H, 2K + 2) agrees with convex_caps, and no
    # l >= H lowers a value; H is the same integer for every scaling
    rng = random.Random(47)
    cases = [(load_domain(data_dir / f"{name}.json"), 20)
             for name in REFERENCE_TARGETS]
    cases += [(ToricDomain.convex([(0, 1), (1, 1), (N, 0)]), 20)
              for N in range(2, 13)]
    cases += [(random_convex(rng), rng.randint(0, 20)) for _ in range(40)]
    for dom, K in cases:
        expansion = convex_weights(dom)[0]
        H = convex_horizon(expansion, K)
        got = convex_caps(expansion, K)
        assert got.certified
        if not expansion.weights:  # a ball: nothing to subtract
            assert H == 0 and got.values == ball_caps(expansion.head, K).values
            continue
        n = 3 * max(H, 2 * K + 2)
        for k, terms in enumerate(complement_terms(expansion, K, n)):
            assert min(terms) == got[k], (dom, k)
            assert min(terms[H:]) >= got[k], (dom, k)
        for lam in (F(1, 3), F(3, 2), 4, 12):
            assert convex_horizon(convex_weights(dom.scale(lam))[0], K) == H


def test_caps_golden(data_dir):
    # values and certified flags recorded before the integer kernel
    golden = json.loads((data_dir / "caps_golden.json").read_text())
    assert len(golden) == 21
    for entry in golden:
        if entry["type"] == "convex":
            dom, caps = ToricDomain.convex(entry["boundary"]), convex_caps
            expansion, _ = convex_weights(dom)
        else:
            dom, caps = ToricDomain.concave(entry["boundary"]), concave_caps
            expansion, _ = concave_weights(dom)
        got = caps(expansion, entry["K"])
        assert [str(v) for v in got.values] == entry["values"], entry["name"]
        assert got.certified == entry["certified"], entry["name"]


def _flat_runs(rng, n):
    """Random nondecreasing rationals from 0 with long flat runs."""
    vals = [F(0)]
    while len(vals) <= n:
        step = F(rng.randint(1, 9), rng.randint(1, 4))
        vals += [vals[-1] + step] * rng.randint(1, 8)
    return CapacitySeq(tuple(vals[:n + 1]), rng.random() < 0.9)


def test_kernel_against_brute_force():
    rng = random.Random(41)
    for _ in range(150):
        S = _flat_runs(rng, rng.randint(0, 40))
        T = _flat_runs(rng, rng.randint(0, 40))
        k1, k2 = S.horizon, T.horizon
        for A, B in ((S, T), (T, S)):
            full = seq_sum(A, B)
            assert full.horizon == k1 + k2
            assert list(full.values) == brute_sum(A.values, B.values, k1 + k2)
            assert full.certified == (S.certified and T.certified)
            K = rng.randint(0, k1 + k2)
            assert seq_sum(A, B, K).values == full.values[:K + 1]
        U = _flat_runs(rng, rng.randint(0, 10))
        K = rng.randint(0, k1 + k2)
        many = seq_sum_many([S, T, U], K)
        assert list(many.values) == brute_sum(
            brute_sum(S.values, T.values, K), U.values, K)
        assert many.certified == (S.certified and T.certified
                                  and U.certified)
        k = min(K, k1)  # one input supports only its own horizon
        assert seq_sum_many([S], k).values == S.values[:k + 1]
        # the complement min, with run starts anywhere in T, also where
        # the min is below 0 and no capacity sequence
        for A, B in ((S, T), (T, S), (seq_sum(S, T), T), (seq_sum(T, S), S)):
            L = rng.randint(0, B.horizon)
            if A.horizon < L:
                continue
            K = rng.randint(0, A.horizon - L)
            assert kernel_sub(A.values, B.values, L, K) == \
                brute_sub(A.values, B.values, L, K)


def test_kernel_edge_cases():
    zero = CapacitySeq((0,))
    S = ball_caps(F(3, 2), 9)
    assert seq_sum(zero, zero).values == (0,)
    assert seq_sum(zero, S).values == S.values == seq_sum(S, zero).values
    assert seq_sum(S, S, 18).values == tuple(brute_sum(S.values, S.values, 18))
    assert kernel_sub(zero.values, zero.values, 0, 0) == [0]
    assert kernel_sub(S.values, zero.values, 0, 9) == list(S.values)
    # L = 0 tries no run start
    assert kernel_sub(S.values, ball_caps(1, 4).values, 0, 4) == \
        list(S.values[:5])
    # a run start at L itself counts
    T = CapacitySeq((0,) * 7 + (8,) * 27)
    assert kernel_sub(ball_caps(3, 40).values, T.values, 6, 1) == [0, 3]
    assert kernel_sub(ball_caps(3, 40).values, T.values, 7, 1) == [0, 1]


def test_union_reaches_the_sum_of_all_horizons():
    seqs = [ball_caps(1, 5), ellipsoid_caps(1, 2, 3), ball_caps(F(1, 2), 4)]
    many = seq_sum_many(seqs, 12)
    assert list(many.values) == brute_sum(
        brute_sum(seqs[0].values, seqs[1].values, 8), seqs[2].values, 12)
    with pytest.raises(DomainError):
        seq_sum_many(seqs, 13)


def test_kernel_errors():
    S = ball_caps(1, 5)
    with pytest.raises(DomainError):
        seq_sum(S, S, 11)
    with pytest.raises(DomainError):
        seq_sum_many([], 3)
    with pytest.raises(DomainError):
        seq_sum_many([S, S], 11)
    for K in (-1, -5):
        with pytest.raises(DomainError, match="K must be nonnegative"):
            seq_sum_many([S], K)
        with pytest.raises(DomainError, match="K must be nonnegative"):
            seq_sum(S, S, K)
    with pytest.raises(DomainError, match="start at 0"):
        CapacitySeq((1, 2))
    with pytest.raises(DomainError, match="K must be nonnegative"):
        concave_caps(concave_weights(OMEGA1)[0], -1)
    with pytest.raises(DomainError, match="at least one weight"):
        concave_caps(WeightExpansion(None, ()), 3)
    with pytest.raises(DomainError, match="K must be nonnegative"):
        convex_caps(convex_weights(OMEGA2)[0], -1)
    with pytest.raises(DomainError, match="K must be nonnegative"):
        # head only
        convex_caps(convex_weights(ToricDomain.ball(2, "convex"))[0], -1)
    with pytest.raises(DomainError, match="head\\^2 > sum of weights"):
        # no positive area, so no horizon exists
        convex_caps(WeightExpansion(3, (2, 2, 1)), 3)
    with pytest.raises(DomainError, match="concave domain's expansion"):
        concave_caps(convex_weights(OMEGA2)[0], 3)
    with pytest.raises(DomainError, match="convex domain's expansion"):
        convex_caps(concave_weights(OMEGA1)[0], 3)
    with pytest.raises(DomainError, match="exceeds what the inputs support"):
        seq_sum_many([ball_caps(1, 3)], 10)
