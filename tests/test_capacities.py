import dataclasses
import functools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from echtoric import (CapacitySeq, DomainError, EmbeddingProblem, LimitError,
                      PackingInstance, ToricDomain, WeightExpansion, ball_caps,
                      capacity_obstruction, capacity_report, concave_caps,
                      concave_weights, contains, convex_caps, convex_horizon,
                      convex_weights, load_domain, oracle_convex_caps_upto,
                      reduce_to_packing)
from echtoric import capacities
from echtoric.capacities import (_ball_ints, _lower, _maxplus, _run_starts,
                                 _sizes, _union)

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


def kernel_sub(s, t, L, K):
    """The kernel's complement min over l <= L: l = 0, then the run
    starts of t up to L."""
    return _lower([x - t[0] for x in s[:K + 1]], s, t,
                  _run_starts(t[:L + 1]))


def test_ball_caps_against_enumeration():
    assert list(ball_caps(1, 12).values) == brute_ellipsoid(1, 1, 12)
    assert list(ball_caps(F(2, 3), 9).values) == brute_ellipsoid(
        F(2, 3), F(2, 3), 9)
    assert ball_caps(1, 5).values == (0, 1, 1, 2, 2, 2)


def test_equal_balls_against_brute_force_union():
    # n balls B(a) in one staircase equal n ball staircases summed by
    # the naive max-plus, one ball at a time
    for a in (1, 2, 7):
        for K in (0, 1, 5, 17, 60, 80):
            ball = _ball_ints(a, K)
            union = ball
            for n in range(1, 13):
                assert _ball_ints(a, K, n) == union, (a, K, n)
                union = brute_sum(union, ball, K)


def test_long_run_full_size():
    # E(1, 3000) is 3000 unit balls, one run: one staircase, no fold
    expansion = concave_weights(ToricDomain.ellipsoid(1, 3000))[0]
    assert expansion.sizes == (1,) * 3000
    assert list(concave_caps(expansion, 200).values) == \
        _union([_ball_ints(1, 200)] * 3000, 200)


@pytest.fixture
def folds(monkeypatch):
    """The horizon K of each _maxplus call of the kernel."""
    calls = []
    maxplus = capacities._maxplus

    def counted(s, t, K, lo=0):
        calls.append(K)
        return maxplus(s, t, K, lo)
    monkeypatch.setattr(capacities, "_maxplus", counted)
    return calls


def test_concave_caps_folds_once_per_distinct_size(folds):
    rng = random.Random(53)
    cases = [(concave_weights(OMEGA1)[0], 30),
             (concave_weights(ToricDomain.ellipsoid(2, 23))[0], 40)]
    cases += [(concave_weights(random_concave(rng))[0], rng.randint(0, 60))
              for _ in range(20)]
    for expansion, K in cases:
        folds.clear()
        concave_caps(expansion, K)
        assert len(folds) <= len(set(expansion.sizes)) - 1, expansion
    # E(1, N) is N equal balls and folds nothing
    for N in (1, 2, 12, 3000):
        folds.clear()
        expansion = concave_weights(ToricDomain.ellipsoid(1, N))[0]
        concave_caps(expansion, 62)
        assert len(folds) == 0, N


def test_complement_rounds_fold_once_per_distinct_size(monkeypatch, folds,
                                                       data_dir):
    # each round builds the head staircase and one staircase per run of
    # equal weights, and folds those into the union
    built = []
    ball_ints = capacities._ball_ints

    def counted(a, K, n=1):
        built.append((a, K, n))
        return ball_ints(a, K, n)
    monkeypatch.setattr(capacities, "_ball_ints", counted)
    rng = random.Random(59)
    thin = ToricDomain.convex([(0, 1), (1, 1), (30, 0)])
    cases = [(thin, 5), (OMEGA2, 20),
             (load_domain(data_dir / "e12_convex.json"), 12)]
    cases += [(random_convex(rng), rng.randint(0, 20)) for _ in range(20)]
    rounds_seen = 0
    for dom, K in cases:
        expansion = convex_weights(dom)[0]
        if not expansion.sizes:
            continue
        (b, *ws), _ = _sizes((expansion.top, *expansion.sizes))
        runs = [(w, ws.count(w)) for w in sorted(set(ws), reverse=True)]
        built.clear()
        folds.clear()
        convex_caps(expansion, K)
        per_round = len(runs) + 1
        rounds = len(built) // per_round
        assert len(built) == rounds * per_round and rounds >= 1
        for r in range(rounds):
            head, *weights = built[r * per_round:(r + 1) * per_round]
            R = weights[0][1]
            assert head == (b, K + R, 1)
            assert weights == [(w, R, n) for w, n in runs], dom
        assert len(folds) == rounds * (len(runs) - 1), dom
        rounds_seen = max(rounds_seen, rounds)
    assert rounds_seen >= 2  # the thin target grows its range


def _copies(seq, n, K):
    """The union of n copies of seq, ball by ball.

    The union is associative (test_kernel_against_brute_force), so the
    n copies fold by repeated doubling, in O(log n) unions."""
    out, power = None, seq
    while n:
        if n & 1:
            out = power if out is None else _union([out, power], K)
        n >>= 1
        if n:
            power = _union([power, power], K)
    return out


# nonincreasing sizes with long runs of equal balls
_size_runs = st.lists(
    st.tuples(st.integers(1, 60), st.integers(1, 3000)),
    min_size=1, max_size=4, unique_by=lambda run: run[0]).filter(
        lambda runs: any(n > 1 for _, n in runs))


@given(runs=_size_runs, D=st.integers(1, 6), K=st.integers(0, 64),
       t=st.fractions(min_value=F(1, 7), max_value=7, max_denominator=7))
@example(runs=[(1, 3000)], D=1, K=64, t=F(1))
@example(runs=[(7, 2), (5, 1), (3, 3000)], D=3, K=0, t=F(2, 3))
def test_concave_caps_of_runs_is_the_ball_by_ball_union(runs, D, K, t):
    sizes = tuple(w for w, n in sorted(runs, reverse=True) for _ in range(n))
    expansion = WeightExpansion(D, None, sizes)
    got = concave_caps(expansion, K).values
    union = _union([_copies(_ball_ints(w, K), n, K)
                    for w, n in sorted(runs, reverse=True)], K)
    assert got == tuple(F(v, D) for v in union)
    scaled = WeightExpansion(D * t.denominator, None,
                             tuple(w * t.numerator for w in sizes))
    assert concave_caps(scaled, K).values == tuple(t * v for v in got)


def test_union_is_order_independent():
    # the balls 2, 2/3, 2/3, 1/3 in units of 1/3
    seqs = [_ball_ints(a, 12) for a in (6, 2, 2, 1)]
    assert _union(seqs, 12) == _union(seqs[::-1], 12)


def test_concave_caps_is_weight_ball_union():
    omega1 = ToricDomain.concave([("0", "10/3"), ("2/3", "4/3"),
                                  ("4/3", "2/3"), ("7/3", "0")])
    seq = concave_caps(concave_weights(omega1)[0], 6)
    assert seq[0] == 0
    assert seq[1] == 2  # the largest weight ball dominates at k = 1
    union = functools.reduce(
        lambda S, T: brute_sum(S, T, 6),
        [ball_caps(w, 6).values for w in
         (2, F(2, 3), F(2, 3), F(1, 3), F(1, 3))])
    assert list(seq.values) == union


def test_concave_caps_of_ellipsoid_triangles():
    lam = F(5, 7)
    for p, q in [(1, 1), (1, 2), (2, 3), (3, 2), (F(3, 2), F(5, 3)), (3, 7),
                 (2 * lam, 3 * lam)]:
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
    assert list(got.values) == brute_ellipsoid(1, 2, 20)
    assert got.certified


def test_capacity_monotonicity_under_containment():
    rng = random.Random(19)
    for _ in range(8):
        dom = random_concave(rng)
        inner = dom.scale(F(3, 4))
        assert contains(dom, inner)
        assert all(a <= b for a, b in zip(
            concave_caps(concave_weights(inner)[0], 8).values,
            concave_caps(concave_weights(dom)[0], 8).values))
    for _ in range(8):
        dom = random_convex(rng)
        inner = dom.scale(F(3, 4))
        assert all(a <= b for a, b in zip(
            convex_caps(convex_weights(inner)[0], 8).values,
            convex_caps(convex_weights(dom)[0], 8).values))


def test_capacity_seq_container_behaviour():
    seq = CapacitySeq(2, (0, 2, 5))
    assert len(seq) == 3 and seq[2] == F(5, 2)
    assert seq.values == (0, 1, F(5, 2))
    assert CapacitySeq(2, [0, 2, 5]) == seq  # a kernel list is kept as a tuple
    # certified is a constant every sequence reads, not a field to set
    assert [f.name for f in dataclasses.fields(CapacitySeq)] == ["D", "ints"]
    assert seq.certified is True
    with pytest.raises(TypeError):
        CapacitySeq(1, (0, 1), False)


OMEGA1 = ToricDomain.concave([("0", "10/3"), ("2/3", "4/3"),
                              ("4/3", "2/3"), ("7/3", "0")])
# c_0..c_20 of OMEGA2, the lattice-path oracle's values
OMEGA2 = ToricDomain.convex([(0, 1), (1, 2), (5, 0)])
OMEGA2_VALUES = tuple(F(v) for v in (
    0, 2, 4, 5, 6, 7, 8, 9, 10, 11, 11, 12, 13, 13, 14, 15, 15, 16, 16,
    17, 17))


def test_omega2_values_are_the_path_oracles():
    assert tuple(v for v, _ in oracle_convex_caps_upto(OMEGA2, 20)) == \
        OMEGA2_VALUES


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


@st.composite
def _convex_expansions(draw):
    """The expansion (D, top, sizes) of a lattice convex domain over D:
    a flat top, edges of distinct falling slopes -num/den, and a drop
    or overhang back to the x-axis.  Its area makes top^2 > sum sizes^2."""
    edges = sorted(draw(st.lists(
        st.tuples(st.integers(1, 30), st.integers(1, 30), st.integers(1, 300)),
        min_size=1, max_size=4, unique_by=lambda e: F(e[0], e[1]))),
        key=lambda e: F(e[0], e[1]))
    flat, rise = draw(st.integers(0, 300)), draw(st.integers(0, 300))
    x, y = flat, rise + sum(num * r for num, _, r in edges)
    boundary = [(0, y)] + [(flat, y)] * (flat > 0)
    for num, den, r in edges:
        x, y = x + den * r, y - num * r
        boundary.append((x, y))
    if rise:
        boundary.append((x - draw(st.integers(0, x - 1)), 0))
    dom = ToricDomain("convex", draw(st.integers(1, 10 ** 45)),
                      tuple(boundary))
    return convex_weights(dom)[0]


@given(expansion=_convex_expansions(), K=st.integers(0, 20),
       t=st.fractions(min_value=F(1, 10 ** 45), max_value=10 ** 45))
@example(expansion=convex_weights(OMEGA2)[0], K=20, t=F(12))
def test_convex_caps_scale_with_the_expansion(expansion, K, t):
    # t times the expansion has t times the capacities: the same
    # integers up to their gcd, proved at the same horizon
    p, q = t.numerator, t.denominator
    scaled = WeightExpansion(expansion.D * q, expansion.top * p,
                             tuple(a * p for a in expansion.sizes))
    base, got = convex_caps(expansion, K), convex_caps(scaled, K)
    assert got.values == tuple(t * v for v in base.values)
    g, h = math.gcd(*base.ints) or 1, math.gcd(*got.ints) or 1
    assert [a // h for a in got.ints] == [a // g for a in base.ints]
    assert convex_horizon(scaled, K) == convex_horizon(expansion, K)


def test_capacity_paths_compare_no_fractions(monkeypatch):
    # the kernels, the report and the obstruction test compare integers
    # over their denominators, and no sequence re-checks its order on
    # Fractions
    calls = []
    richcmp = Fraction._richcmp

    def counted(self, other, op):
        calls.append(op)
        return richcmp(self, other, op)

    fits = EmbeddingProblem(OMEGA1, OMEGA2)
    blocked = EmbeddingProblem(OMEGA1.scale(2), OMEGA2)
    instances = [reduce_to_packing(fits), reduce_to_packing(blocked)]
    source, target = fits.source_weights, fits.target_weights
    monkeypatch.setattr(Fraction, "_richcmp", counted)
    seqs = [concave_caps(source, 20), convex_caps(target, 20)]
    reports = [capacity_report(fits, 12), capacity_report(blocked, 12)]
    hits = [capacity_obstruction(inst, 50) for inst in instances]
    monkeypatch.undo()
    assert len(calls) == 0, calls
    assert seqs[1].values == OMEGA2_VALUES
    assert [r.first_violation() for r in reports] == [None, 1]
    row = reports[1].rows[1]  # the report keeps its Fraction fields
    assert dataclasses.astuple(row) == (1, 4, 2, False)
    assert isinstance(row.source_value, Fraction)
    assert hits == [None, 2]


def complement_terms(expansion, K, n):
    """Rows k <= K of S_(k+l) - T_l for l <= n: the head ball's
    staircase S less the union T of the weight balls."""
    sizes = (expansion.head, *expansion.weights)
    den = math.lcm(*(v.denominator for v in sizes))
    b, *ws = (int(v * den) for v in sizes)
    S = _ball_ints(b, K + n)
    T = _union([_ball_ints(w, n) for w in ws], n)
    return [[F(S[k + l] - T[l], den) for l in range(n + 1)]
            for k in range(K + 1)]


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


def test_complement_proves_each_min_once(monkeypatch):
    # H is a function of the min, the head and the weights, so a round
    # that leaves the min as it was reuses H: head 3 with weights 2, 1, 1
    # at K = 3 takes two rounds on the min 0, 1, 2, 3 and proves H = 31
    # once
    rounds, horizons = [], []
    lower, horizon = capacities._lower, capacities._horizon

    def counted_lower(out, s, t, starts):
        rounds.append(list(out))
        return lower(out, s, t, starts)

    def counted_horizon(out, b, ws):
        horizons.append(list(out))
        return horizon(out, b, ws)
    monkeypatch.setattr(capacities, "_lower", counted_lower)
    monkeypatch.setattr(capacities, "_horizon", counted_horizon)
    expansion = WeightExpansion(1, 3, (2, 1, 1))
    assert convex_horizon(expansion, 3) == 31
    assert len(rounds) == 2 and horizons == [[0, 1, 2, 3]]
    assert convex_caps(expansion, 3).ints == (0, 1, 2, 3)


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
    """Random nondecreasing ints from 0 with long flat runs."""
    vals = [0]
    while len(vals) <= n:
        vals += [vals[-1] + rng.randint(1, 36)] * rng.randint(1, 8)
    return vals[:n + 1]


def test_kernel_against_brute_force():
    rng = random.Random(41)
    for _ in range(150):
        S = _flat_runs(rng, rng.randint(0, 40))
        T = _flat_runs(rng, rng.randint(0, 40))
        k1, k2 = len(S) - 1, len(T) - 1
        for A, B in ((S, T), (T, S)):
            full = _maxplus(A, B, k1 + k2)
            assert full == brute_sum(A, B, k1 + k2)
            K = rng.randint(0, k1 + k2)
            assert _maxplus(A, B, K) == full[:K + 1]
            # a growing union computes only its entries from lo on
            lo = rng.randint(1, K + 1)
            assert _maxplus(A, B, K, lo) == full[lo:K + 1]
        U = _flat_runs(rng, rng.randint(0, 10))
        K = rng.randint(0, k1 + k2)
        assert _union([S, T, U], K) == brute_sum(brute_sum(S, T, K), U, K)
        k = min(K, k1)  # one input supports only its own horizon
        assert _union([S], k) == S[:k + 1]
        # the complement min, with run starts anywhere in T, also where
        # the min is below 0 and no capacity sequence
        for A, B in ((S, T), (T, S), (_maxplus(S, T, k1 + k2), T),
                     (_maxplus(T, S, k1 + k2), S)):
            L = rng.randint(0, len(B) - 1)
            if len(A) - 1 < L:
                continue
            K = rng.randint(0, len(A) - 1 - L)
            assert kernel_sub(A, B, L, K) == brute_sub(A, B, L, K)


def test_kernel_edge_cases():
    zero = [0]
    S = _ball_ints(3, 9)
    assert _maxplus(zero, zero, 0) == [0]
    assert _maxplus(zero, S, 9) == S == _maxplus(S, zero, 9)
    assert _maxplus(S, S, 18) == brute_sum(S, S, 18)
    # t is too short for the run start 1 of s to reach out[5]
    s, t = [0, 1, 1, 1, 1, 1, 1, 5, 5], [0, 3, 7]
    assert _maxplus(s, t, 8, 5) == brute_sum(s, t, 8)[5:] == [8] * 4
    assert kernel_sub(zero, zero, 0, 0) == [0]
    assert kernel_sub(S, zero, 0, 9) == S
    # L = 0 tries no run start
    assert kernel_sub(S, _ball_ints(1, 4), 0, 4) == S[:5]
    # a run start at L itself counts
    T = [0] * 7 + [8] * 27
    assert kernel_sub(_ball_ints(3, 40), T, 6, 1) == [0, 3]
    assert kernel_sub(_ball_ints(3, 40), T, 7, 1) == [0, 1]


def test_union_reaches_the_sum_of_all_horizons():
    # the balls 1 and 1/2 and the ellipsoid E(1, 2) in units of 1/2
    seqs = [_ball_ints(2, 5), brute_ellipsoid(2, 4, 3), _ball_ints(1, 4)]
    assert _union(seqs, 12) == brute_sum(
        brute_sum(seqs[0], seqs[1], 8), seqs[2], 12)


def test_kernel_errors():
    for K in (-1, -5):
        with pytest.raises(DomainError, match="K must be nonnegative"):
            ball_caps(1, K)
    for D, ints in ((1, (1, 2)), (1, ()), (0, (0, 1)), (-3, (0, 1))):
        with pytest.raises(DomainError, match="start at 0, over D > 0"):
            CapacitySeq(D, ints)
    with pytest.raises(DomainError, match="nondecreasing"):
        CapacitySeq(1, (0, 2, 1))
    with pytest.raises(DomainError, match="K must be nonnegative"):
        concave_caps(concave_weights(OMEGA1)[0], -1)
    with pytest.raises(DomainError, match="at least one weight"):
        concave_caps(WeightExpansion(1, None, ()), 3)
    with pytest.raises(DomainError, match="K must be nonnegative"):
        convex_caps(convex_weights(OMEGA2)[0], -1)
    with pytest.raises(DomainError, match="K must be nonnegative"):
        # head only
        convex_caps(convex_weights(ToricDomain.ball(2, "convex"))[0], -1)
    with pytest.raises(DomainError, match="head\\^2 > sum of weights"):
        # no positive area, so no horizon exists
        convex_caps(WeightExpansion(1, 3, (2, 2, 1)), 3)
    with pytest.raises(DomainError, match="concave domain's expansion"):
        concave_caps(convex_weights(OMEGA2)[0], 3)
    with pytest.raises(DomainError, match="convex domain's expansion"):
        convex_caps(concave_weights(OMEGA1)[0], 3)


# the square [0, 3]^2 less two unit corners: head 4, weights 1, 1; its
# horizon at K = 30 lies inside the first range, so one round suffices
THICK = convex_weights(ToricDomain.convex([(0, 3), (1, 3), (3, 1), (3, 0)]))[0]
K_GUARD = 30
# each public entry point with the staircase cells its guard counts,
# balls times horizon; a convex complement's first range is K + 2K + 2
GUARDED = {
    "ball_caps": (lambda: ball_caps(F(3, 2), K_GUARD), K_GUARD),
    "concave_caps": (lambda: concave_caps(concave_weights(OMEGA1)[0], K_GUARD),
                     5 * K_GUARD),
    "convex_caps_ball": (
        lambda: convex_caps(WeightExpansion(1, 2, ()), K_GUARD), K_GUARD),
    "convex_caps": (lambda: convex_caps(THICK, K_GUARD), 3 * (3 * K_GUARD + 2)),
    "convex_horizon": (lambda: convex_horizon(THICK, K_GUARD),
                       3 * (3 * K_GUARD + 2)),
    "capacity_obstruction": (
        lambda: capacity_obstruction(PackingInstance.of(3, (1, 1, 1)),
                                     K_GUARD),
        3 * K_GUARD),
}


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_public_capacity_functions_are_guarded(monkeypatch, name):
    call, cells = GUARDED[name]

    def unbuilt(*args):
        raise AssertionError("a staircase was built before the guard")

    with monkeypatch.context() as m:
        m.setattr(capacities, "MAX_STAIRCASE_CELLS", cells - 1)
        m.setattr(capacities, "_ball_ints", unbuilt)
        with pytest.raises(LimitError):
            call()
    monkeypatch.setattr(capacities, "MAX_STAIRCASE_CELLS", cells)
    call()
