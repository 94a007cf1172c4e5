import json
import random
from fractions import Fraction

import pytest

from echtoric import (DomainError, EmbeddingProblem, LimitError,
                      PackingInstance, ToricDomain, capacities,
                      capacity_obstruction, cremona_reduce, cremona_step,
                      decide_packing, defect, optimal_embedding_scale,
                      optimal_scale, reduce_to_packing)

from echtoric.packing import _integral, _scaled_feasible

from generators import random_instance

F = Fraction


# -- instance normalization --------------------------------------------------

def test_instance_validation():
    with pytest.raises(DomainError):
        PackingInstance.of(0, (1,))
    with pytest.raises(DomainError):
        PackingInstance.of(-2, (1,))
    with pytest.raises(DomainError):
        PackingInstance.of(2, (1, -1))
    # zero sizes are dropped, the rest is sorted descending, over one D
    inst = PackingInstance.of(3, (F(1, 2), 0, 2, 0, 1))
    assert (inst.D, inst.top, inst.sizes) == (2, 6, (4, 2, 1))
    assert inst == PackingInstance(2, 6, (4, 2, 1))
    assert inst.target == 3 and inst.balls == (2, 1, F(1, 2))
    assert inst.vector() == (3, 2, 1, F(1, 2))
    # the vector pads with zeros so three body entries exist
    assert PackingInstance.of(1, ()).vector() == (1, 0, 0, 0)
    assert PackingInstance.of(1, (1,)).vector() == (1, 1, 0, 0)
    assert PackingInstance(3, 3, (1,)).vector() == (1, F(1, 3), 0, 0)
    # the integer form: a head, D > 0 and positive nonincreasing sizes
    for D, top, sizes in ((1, None, (1,)), (0, 1, (1,)), (-1, 1, (1,)),
                          (1, 0, (1,)), (1, 2, (1, 0)), (1, 2, (1, -1)),
                          (2, 2, (1, 2))):
        with pytest.raises(DomainError):
            PackingInstance(D, top, sizes)


def test_defect():
    assert defect((2, 1, 1, 1, 1)) == 1
    assert defect((1, 1)) == 0
    assert defect((1, 1, F(1, 2))) == F(1, 2)
    assert defect((3, 1, 1, 1)) == 0


# -- single moves, traced by hand --------------------------------------------

def test_step_hand_traces():
    assert cremona_step((2, 1, 1, 1, 1)) == (1, 1, 0, 0, 0)
    assert cremona_step((1, 1, F(1, 2))) == (F(1, 2), F(1, 2), 0, F(-1, 2))
    # entries get resorted after the move
    assert cremona_step((5, 3, 2, 2, 1, F(2, 3), F(2, 3), F(1, 3),
                         F(1, 3))) == (3, 1, 1, F(2, 3), F(2, 3), F(1, 3),
                                       F(1, 3), 0, 0)
    with pytest.raises(DomainError):
        cremona_step((2, 1, 1))  # defect 0, nothing to do
    # a negative head is a negative entry: the trace ends at once
    assert cremona_reduce((-1, 1, 1, 1)) == ((-1, 1, 1, 1),)


def test_step_conserves_volume_slack():
    rng = random.Random(11)
    for _ in range(100):
        inst = random_instance(rng)
        vec = inst.vector()
        if defect(vec) <= 0:
            continue
        nxt = cremona_step(vec)
        assert sum(a * a for a in nxt[1:]) - nxt[0] ** 2 == \
            sum(a * a for a in vec[1:]) - vec[0] ** 2
        assert nxt[0] < vec[0]


# -- full decisions -----------------------------------------------------------

def test_decide_already_reduced():
    v = decide_packing(PackingInstance.of(1, (1,)))
    assert v.feasible
    assert v.trace == ((1, 1, 0, 0),)
    assert v.terminal == (1, 1, 0, 0)
    assert v.failures == ()
    assert v.volume_slack == 0


def test_decide_four_balls():
    v = decide_packing(PackingInstance.of(2, (1, 1, 1, 1)))
    assert v.feasible
    assert v.trace == ((2, 1, 1, 1, 1), (1, 1, 0, 0, 0))
    assert v.volume_slack == 0


def test_decide_infeasible_pair():
    v = decide_packing(PackingInstance.of(1, (1, F(1, 2))))
    assert not v.feasible
    assert v.failures == ("negative-entry", "volume")
    assert v.terminal == (F(1, 2), F(1, 2), 0, F(-1, 2))
    assert v.volume_slack == F(-1, 4)


def test_decide_mixed_weights():
    inst = PackingInstance.of(5, (3, 2, 2, 1, F(2, 3), F(2, 3), F(1, 3),
                                  F(1, 3)))
    v = decide_packing(inst)
    assert v.feasible
    assert len(v.trace) == 2
    assert v.terminal == (3, 1, 1, F(2, 3), F(2, 3), F(1, 3), F(1, 3), 0, 0)
    assert v.volume_slack == F(53, 9)


def test_trace_replays():
    rng = random.Random(23)
    for _ in range(60):
        v = decide_packing(random_instance(rng))
        assert v.terminal == v.trace[-1]
        for cur, nxt in zip(v.trace, v.trace[1:]):
            assert cremona_step(cur) == nxt
        last = v.terminal
        assert min(last) < 0 or defect(last) <= 0
        assert v.feasible == (min(last) >= 0 and v.volume_slack >= 0)


def test_verdict_invariances():
    rng = random.Random(31)
    for _ in range(40):
        inst = random_instance(rng)
        v = decide_packing(inst)
        # order of the balls is irrelevant
        shuffled = list(inst.balls)
        rng.shuffle(shuffled)
        w = decide_packing(PackingInstance.of(inst.target, tuple(shuffled)))
        assert w == v
        # shrinking one ball never breaks a feasible packing
        if v.feasible and inst.balls:
            i = rng.randrange(len(inst.balls))
            smaller = list(inst.balls)
            smaller[i] = smaller[i] * F(1, 2)
            assert decide_packing(
                PackingInstance.of(inst.target, tuple(smaller))).feasible


# -- the capacity cross-check ------------------------------------------------

def test_capacity_obstruction_goldens():
    of = PackingInstance.of
    assert capacity_obstruction(of(2, (1, 1, 1, 1)), 50) is None
    assert capacity_obstruction(of(1, (1, F(1, 2))), 50) == 2
    assert capacity_obstruction(of(F(7, 3), (F(7, 3),)), 30) is None
    assert capacity_obstruction(of(1, ()), 10) is None


def test_capacity_obstruction_guard(monkeypatch):
    # the ball union runs on concave_caps, under its staircase guard
    inst = PackingInstance.of(2, (1, 1, 1, 1))
    monkeypatch.setattr(capacities, "MAX_STAIRCASE_CELLS", 4 * 50 - 1)
    with pytest.raises(LimitError):
        capacity_obstruction(inst, 50)
    monkeypatch.setattr(capacities, "MAX_STAIRCASE_CELLS", 4 * 50)
    assert capacity_obstruction(inst, 50) is None


def test_feasible_implies_no_obstruction():
    rng = random.Random(47)
    checked = 0
    for _ in range(30):
        inst = random_instance(rng)
        v = decide_packing(inst)
        k = capacity_obstruction(inst, 40)
        if v.feasible:
            assert k is None
        elif k is not None:
            assert not v.feasible
            checked += 1
    assert checked > 0


# -- scale search -------------------------------------------------------------

def test_optimal_scale_all_balls():
    inst = PackingInstance.of(2, (1, 1, 1, 1))
    lo, hi = optimal_scale(inst, (1, 1, 1, 1), F(1, 128))
    assert lo == 1
    assert hi == 1 + F(1, 128)


def test_optimal_scale_single_ball():
    lo, hi = optimal_scale(PackingInstance.of(1, (1,)), (1,), F(1, 64))
    assert (lo, hi) == (1, F(65, 64))
    # here the reduction goes negative just past 1 while volume still fits
    lo, hi = optimal_scale(PackingInstance.of(2, (1, 1, 1)), (1,), F(1, 64))
    assert (lo, hi) == (1, F(65, 64))


def test_optimal_scale_bracket_is_sharp():
    rng = random.Random(59)
    for _ in range(10):
        inst = random_instance(rng)
        if not inst.balls or not decide_packing(inst).feasible:
            continue
        lo, hi = optimal_scale(inst, inst.balls[:1], F(1, 32))
        assert hi - lo <= F(1, 32)
        scaled_lo = (lo * inst.balls[0],) + inst.balls[1:]
        scaled_hi = (hi * inst.balls[0],) + inst.balls[1:]
        assert decide_packing(PackingInstance.of(inst.target,
                                                 scaled_lo)).feasible
        assert not decide_packing(PackingInstance.of(inst.target,
                                                     scaled_hi)).feasible


def test_decision_compares_no_fractions(monkeypatch):
    # E(N/1000, 1/1000) into the square: the instance is built, decided
    # and scaled on integers, so the Fraction comparisons left are the
    # bisection's, whatever N is
    calls = []
    richcmp = Fraction._richcmp

    def counted(self, other, op):
        calls.append(op)
        return richcmp(self, other, op)

    counts = []
    for N in (300, 3000):
        problem = EmbeddingProblem(
            ToricDomain.ellipsoid(F(N, 1000), F(1, 1000)),
            ToricDomain.convex([(0, 1), (1, 1), (1, 0)]))
        calls.clear()
        monkeypatch.setattr(Fraction, "_richcmp", counted)
        assert decide_packing(reduce_to_packing(problem)).feasible
        optimal_embedding_scale(problem, F(1, 1000))
        monkeypatch.undo()
        counts.append(len(calls))
    assert counts[1] <= counts[0] < 64, counts


def test_optimal_scale_rejections():
    inst = PackingInstance.of(2, (1, 1))
    with pytest.raises(DomainError):
        optimal_scale(inst, (1, 1, 1), F(1, 16))
    with pytest.raises(DomainError):
        optimal_scale(inst, (F(3, 4),), F(1, 16))
    with pytest.raises(DomainError):
        optimal_scale(inst, (), F(1, 16))
    with pytest.raises(DomainError):
        optimal_scale(inst, (1,), 0)
    with pytest.raises(DomainError):
        optimal_scale(PackingInstance.of(1, (2, 2)), (2,), F(1, 16))


def test_packing_golden(data_dir):
    # recorded before the integer reduction kernel: seeded random
    # instances covering both failure kinds and the zero padding, and
    # 1/1000 scale brackets of the McDuff-Schlenk staircase sources
    # E(1,a) into B(3) and the square and of random domain pairs
    golden = json.loads((data_dir / "packing_golden.json").read_text())
    assert len(golden["decide"]) == 73 and len(golden["scale"]) == 22
    for entry in golden["decide"]:
        v = decide_packing(PackingInstance.of(
            F(entry["target"]), tuple(map(F, entry["balls"]))))
        assert v.feasible == entry["feasible"]
        assert list(v.failures) == entry["failures"]
        assert str(v.volume_slack) == entry["volume_slack"]
        assert [[str(a) for a in vec] for vec in v.trace] == entry["trace"]
        assert v.terminal == v.trace[-1]
    for entry in golden["scale"]:
        problem = EmbeddingProblem(
            ToricDomain.concave(entry["source"]),
            ToricDomain.convex(entry["target"]))
        lo, hi = optimal_embedding_scale(problem, F(entry["precision"]))
        assert [str(lo), str(hi)] == entry["bracket"], entry["name"]


def _fraction_feasible(target, balls):
    """Reduction on Fractions by single moves, as a reference."""
    vec = PackingInstance.of(target, balls).vector()
    slack = vec[0] ** 2 - sum(a * a for a in vec[1:])
    while min(vec) >= 0 and defect(vec) > 0:
        vec = cremona_step(vec)
    return min(vec) >= 0 and slack >= 0


def test_scale_probe_matches_fraction_decisions():
    rng = random.Random(67)
    seen = set()
    for _ in range(400):
        inst = random_instance(rng, max_balls=rng.choice((2, 4, 9)))
        cut = rng.randint(1, len(inst.balls))
        scaled, fixed = inst.balls[:cut], inst.balls[cut:]
        _, ints = _integral((inst.target,) + scaled + fixed)
        n = 1 + len(scaled)
        for t in (F(0), F(1), F(rng.randint(0, 40), rng.randint(1, 24))):
            balls = tuple(t * a for a in scaled) + fixed
            ref = decide_packing(PackingInstance.of(inst.target, balls))
            got = _scaled_feasible(ints[0], ints[1:n], ints[n:], t)
            assert got == ref.feasible == _fraction_feasible(inst.target,
                                                             balls)
            seen.add((t == 0, len(ref.trace[0]) - 1 - len(balls) > 0,
                      "negative-entry" in ref.failures))
    # scale zero, zero padding and negative terminals all occurred
    assert {s[0] for s in seen} == {s[1] for s in seen} == \
        {s[2] for s in seen} == {False, True}
