import json
import random
from collections import Counter
from fractions import Fraction
from itertools import chain
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from echtoric import (DomainError, EmbeddingProblem, HomologyClass,
                      LimitError, PackingInstance, ToricDomain, area, c1,
                      capacities, capacity_obstruction, cremona_step,
                      decide_packing, defect, intersection, load_domain,
                      optimal_embedding_scale, optimal_scale, packing,
                      reduce_to_packing, save_domain)
from echtoric import cli
from echtoric.cli import main

from echtoric.packing import _integral, _reduce, _slack

from generators import random_instance

DATA = Path(__file__).parent / "data"
F = Fraction
BALL3 = ToricDomain.ball(3, kind="convex")
SQUARE = ToricDomain.convex([(0, 1), (1, 1), (1, 0)])


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
    assert inst.head == 3 and inst.weights == (2, 1, F(1, 2))
    assert PackingInstance.of(1, ()).weights == ()
    assert (PackingInstance(3, 3, (1,)).head,
            PackingInstance(3, 3, (1,)).weights) == (1, (F(1, 3),))
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
    rows = []
    assert _reduce(-1, [1, 1, 1], rows) == HomologyClass(1, (0, 0, 0))
    assert rows == [(-1, 1, 1, 1)]


def test_step_conserves_volume_slack():
    rng = random.Random(11)
    for _ in range(100):
        inst = random_instance(rng)
        vec = (inst.head, *inst.weights)
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
        shuffled = list(inst.weights)
        rng.shuffle(shuffled)
        w = decide_packing(PackingInstance.of(inst.head, tuple(shuffled)))
        assert w == v
        # shrinking one ball never breaks a feasible packing
        if v.feasible and inst.weights:
            i = rng.randrange(len(inst.weights))
            smaller = list(inst.weights)
            smaller[i] = smaller[i] * F(1, 2)
            assert decide_packing(
                PackingInstance.of(inst.head, tuple(smaller))).feasible


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
        if not inst.weights or not decide_packing(inst).feasible:
            continue
        lo, hi = optimal_scale(inst, inst.weights[:1], F(1, 32))
        assert hi - lo <= F(1, 32)
        scaled_lo = (lo * inst.weights[0],) + inst.weights[1:]
        scaled_hi = (hi * inst.weights[0],) + inst.weights[1:]
        assert decide_packing(PackingInstance.of(inst.head,
                                                 scaled_lo)).feasible
        assert not decide_packing(PackingInstance.of(inst.head,
                                                     scaled_hi)).feasible


def test_decision_compares_no_fractions(monkeypatch):
    # E(N/1000, 1/1000) into the square: the instance is built, decided
    # and scaled on integers, and the bisection runs on dyadic integers,
    # so the one Fraction comparison left is the precision's sign
    calls = []
    richcmp = Fraction._richcmp

    def counted(self, other, op):
        calls.append(op)
        return richcmp(self, other, op)

    counts = []
    for N in (300, 3000):
        problem = EmbeddingProblem(
            ToricDomain.ellipsoid(F(N, 1000), F(1, 1000)), SQUARE)
        calls.clear()
        monkeypatch.setattr(Fraction, "_richcmp", counted)
        assert decide_packing(reduce_to_packing(problem)).feasible
        optimal_embedding_scale(problem, F(1, 1000))
        monkeypatch.undo()
        counts.append(len(calls))
    assert counts[1] <= counts[0] <= 1, counts


def _strings(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for item in obj:
            yield from _strings(item)
    elif isinstance(obj, str):
        yield obj


def test_reports_format_each_value_once(tmp_path, capsys, monkeypatch):
    # a report formats each distinct rational once, from one table of
    # integers over one denominator, however often the value recurs;
    # every text goes through the one formatter, fileio.ratio_text
    for name, dom in (("e300", ToricDomain.ellipsoid(1, 300)),
                      ("e3000", ToricDomain.ellipsoid(1, 3000)),
                      ("ball3", BALL3)):
        save_domain(dom, tmp_path / f"{name}.json")
    made = []
    text = cli.ratio_text

    def counted(n, D):
        made.append((n, D))
        return text(n, D)
    monkeypatch.setattr(cli, "ratio_text", counted)
    monkeypatch.setattr(Fraction, "__str__", None)  # no text bypasses it
    for argv in (["embed", "e300.json", "ball3.json", "--scale-search",
                  "1/1000", "--report", "40"],
                 ["weights", "e3000.json"]):
        made.clear()
        assert main([str(tmp_path / a) if a.endswith(".json") else a
                     for a in argv]) == 0, argv
        report = json.loads(capsys.readouterr().out)
        distinct = set(_strings(report))
        assert 0 < len(made) <= len(distinct), argv


def test_reports_skip_the_pure_python_encoder(data_dir, tmp_path, capsys,
                                              monkeypatch):
    # json.dumps with an indent runs json.encoder._make_iterencode; the
    # canonical writer writes every report and file without it
    import json.encoder

    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder ran")
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        json.dumps([1], indent=2)
    omega1 = str(data_dir / "omega1.json")
    omega2 = str(data_dir / "omega2.json")
    save_domain(ToricDomain.ellipsoid(1, 300), tmp_path / "e300.json")
    out = str(tmp_path / "out")
    for argv in (["weights", omega1], ["--approx", "weights", omega2,
                                       "--svg", out],
                 ["--approx", "caps", omega2, "--k", "8", "--oracle"],
                 ["caps", omega1, "--k", "8"],
                 ["--approx", "pack", "--target", "1", "--balls", "1,1/2",
                  "--trace", out],
                 ["--approx", "--timing", "embed", omega1, omega2,
                  "--report", "8", "--scale-search", "1/100"],
                 ["embed", str(tmp_path / "e300.json"), omega2],
                 ["svg", omega1, out, "--decomposition"],
                 ["svg", omega2, out, "--approximation", "1/12"]):
        assert main(argv) == 0, argv
        assert json.loads(capsys.readouterr().out)


def test_verdict_views_are_the_fraction_trace(data_dir):
    # a Verdict keeps the reducer's integer rows; its Fraction views are
    # the trace, terminal and slack the rows stand for
    golden = json.loads((data_dir / "packing_golden.json").read_text())
    for entry in golden["decide"]:
        v = decide_packing(PackingInstance.of(
            F(entry["target"]), tuple(map(F, entry["balls"]))))
        trace = tuple(tuple(map(F, row)) for row in entry["trace"])
        assert v.trace == trace and v.terminal == trace[-1]
        assert v.volume_slack == F(entry["volume_slack"])
        assert v.rows == tuple(tuple(int(a * v.D) for a in row)
                               for row in trace)
    # an instance over a non-minimal D: the same verdict, divided down
    inst = reduce_to_packing(EmbeddingProblem(
        ToricDomain.ellipsoid(1, F(33, 10)), SQUARE))
    big = PackingInstance(6 * inst.D, 6 * inst.top,
                          tuple(6 * a for a in inst.sizes))
    v, w = decide_packing(inst), decide_packing(big)
    rows = []
    _reduce(big.top, big.sizes, rows)
    assert w.trace == tuple(tuple(F(n, big.D) for n in row) for row in rows)
    assert w.terminal == w.trace[-1] and len(rows) > 2
    assert w.volume_slack == F(_slack(rows[0]), big.D ** 2)
    assert w == v and hash(w) == hash(v) and w.D == inst.D


def test_scale_search_takes_expansion_integers(monkeypatch):
    # the embedding path hands over the source expansion: its sizes are
    # read as integers, and only the precision goes through rational
    problem = EmbeddingProblem(ToricDomain.ellipsoid(1, F(3001, 10)), BALL3)
    inst, src = reduce_to_packing(problem), problem.source_weights
    expected = optimal_scale(inst, src.weights, F(1, 1000))
    calls = []
    monkeypatch.setattr(packing, "rational",
                        lambda x: calls.append(x) or F(x))
    assert optimal_embedding_scale(problem, F(1, 1000)) == expected
    assert calls == [F(1, 1000)]
    monkeypatch.undo()
    # an expansion whose denominator does not divide the instance's
    with pytest.raises(DomainError):
        optimal_scale(PackingInstance.of(2, (1, 1)),
                      PackingInstance.of(1, (F(1, 2),)), F(1, 16))


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
    inst = PackingInstance.of(target, balls)
    vec = (inst.head, *inst.weights)
    slack = vec[0] ** 2 - sum(a * a for a in vec[1:])
    while min(vec) >= 0 and defect(vec) > 0:
        vec = cremona_step(vec)
    return min(vec) >= 0 and slack >= 0


def _replay(v):
    """Rows of defect moves on an integer vector (b; sizes), at least
    three sizes, re-sorting every row: a reference for the kernel."""
    rows = [(v[0], *sorted(v[1:], reverse=True))]
    while min(rows[-1]) >= 0:
        b, x, y, z, *rest = rows[-1]
        d = x + y + z - b
        if d <= 0:
            break
        rows.append((b - d, *sorted([x - d, y - d, z - d, *rest],
                                    reverse=True)))
    return rows


def _scaled_feasible(target, scaled, fixed, t):
    """The replayed verdict on t*scaled and fixed, sizes times D."""
    p, q = t.numerator, t.denominator
    balls = [q * a for a in fixed]
    if p:
        balls += [p * a for a in scaled]
    v = [q * target] + balls + [0] * (3 - len(balls))
    return min(_replay(v)[-1]) >= 0 and _slack(v) >= 0


def _bisection_scale(instance, scaled, precision, probes):
    """Plain bisection on Fractions, one reduction per probe, as a
    reference for optimal_scale; probes[0] counts the reductions."""
    prec = F(precision)
    D, (_, *scaled_ints) = _integral([F(1, instance.D), *map(F, scaled)])
    remaining = Counter(instance.sizes)
    remaining.subtract(scaled_ints)
    assert D == instance.D and min(remaining.values(), default=0) >= 0
    fixed_ints = list(remaining.elements())

    def feasible(t):
        probes[0] += 1
        return _scaled_feasible(instance.top, scaled_ints, fixed_ints, t)

    if not feasible(F(0)):
        raise DomainError("infeasible already at scale zero")
    if feasible(F(1)):
        lo, hi = F(1), F(2)
        while feasible(hi):
            lo, hi = hi, hi * 2
    else:
        lo, hi = F(0), F(1)
    while hi - lo > prec:
        mid = (lo + hi) / 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def test_scale_probe_matches_fraction_decisions():
    rng = random.Random(67)
    seen = set()
    for _ in range(400):
        inst = random_instance(rng, max_balls=rng.choice((2, 4, 9)))
        cut = rng.randint(1, len(inst.weights))
        scaled, fixed = inst.weights[:cut], inst.weights[cut:]
        _, ints = _integral((inst.head,) + scaled + fixed)
        n = 1 + len(scaled)
        for t in (F(0), F(1), F(rng.randint(0, 40), rng.randint(1, 24))):
            balls = tuple(t * a for a in scaled) + fixed
            ref = decide_packing(PackingInstance.of(inst.head, balls))
            p, q = t.numerator, t.denominator
            head, sizes = q * ints[0], ([p * a for a in ints[1:n]]
                                        + [q * a for a in ints[n:]])
            got = (_slack([head] + sizes) >= 0
                   and _reduce(head, sizes) is None)
            assert got == ref.feasible == _fraction_feasible(
                inst.head, balls) == _scaled_feasible(
                    ints[0], ints[1:n], ints[n:], t)
            seen.add((t == 0, len(ref.trace[0]) - 1 - len(balls) > 0,
                      "negative-entry" in ref.failures))
    # scale zero, zero padding and negative terminals all occurred
    assert {s[0] for s in seen} == {s[1] for s in seen} == \
        {s[2] for s in seen} == {False, True}


def _grid_searches():
    """E(1,a) for a = 1..8 in steps of 1/36 into B(3) and the square."""
    for i in range(7 * 36 + 1):
        for target in (BALL3, SQUARE):
            problem = EmbeddingProblem(
                ToricDomain.ellipsoid(1, 1 + F(i, 36)), target)
            yield (reduce_to_packing(problem), problem.source_weights,
                   F(1, 1000))


def _long_searches():
    for N in (300, 1000, 3000):
        problem = EmbeddingProblem(ToricDomain.ellipsoid(1, N), BALL3)
        yield reduce_to_packing(problem), problem.source_weights, F(1, 1000)


def _random_searches():
    rng = random.Random(71)
    for _ in range(600):
        inst = random_instance(rng, max_balls=rng.choice((2, 4, 9)))
        scaled = inst.weights[:rng.randint(1, len(inst.weights))]
        for precision in (F(1, 16), F(1, 1000), F(1, 10 ** 6)):
            yield inst, scaled, precision


def _count_reductions(monkeypatch):
    """A one-entry list that counts the search's reductions from now on."""
    counts = [0]

    def counted(head, balls, rows=None):
        counts[0] += 1
        return _reduce(head, balls, rows)

    monkeypatch.setattr(packing, "_reduce", counted)
    return counts


def _compare_searches(monkeypatch, searches):
    """(reference, optimal_scale) reduction totals over the searches,
    which must give the same brackets, and never more reductions."""
    counts = _count_reductions(monkeypatch)
    total_ref = total = 0
    for inst, scaled, precision in searches:
        probes = [0]
        counts[0] = 0
        try:
            ref = _bisection_scale(inst, getattr(scaled, "weights", scaled),
                                   precision, probes)
        except DomainError:
            with pytest.raises(DomainError, match="scale zero"):
                optimal_scale(inst, scaled, precision)
        else:
            assert optimal_scale(inst, scaled, precision) == ref
        assert counts[0] <= probes[0]
        total_ref += probes[0]
        total += counts[0]
    return total_ref, total


def test_scale_search_matches_plain_bisection(monkeypatch):
    # the steered search answers each bisection probe as plain bisection
    # does, so the brackets are equal; classes and the volume test spare
    # most reductions
    ref, new = _compare_searches(monkeypatch, _grid_searches())
    assert new * 2 <= ref, (ref, new)
    ref, new = _compare_searches(monkeypatch, _long_searches())
    assert new <= ref, (ref, new)
    ref, new = _compare_searches(monkeypatch, _random_searches())
    assert new * 2 <= ref, (ref, new)


def test_obstruction_hand_classes():
    # (2; 2, 1, 0) moves to (1; 1, 0, -1): the padding entry E_2 pulls
    # back to L - E_0 - E_1, of area 2 - 2 - 1
    assert _reduce(2, [2, 1]) == HomologyClass(1, (-1, -1, 0))
    # (1; 1, 1, 1) moves to (-1; -1, -1, -1): the head's line class pulls
    # back to 2L - E_0 - E_1 - E_2, of area 2 - 3
    assert _reduce(1, [1, 1, 1]) == HomologyClass(2, (-1, -1, -1))
    # reduced, or reduced after moves, with no negative entry
    assert _reduce(3, [1, 1, 1]) is None
    assert _reduce(2, [1, 1, 1, 1]) is None


def test_kernel_class_agrees_with_golden_traces(data_dir):
    # on every decide entry of packing_golden.json the kernel's rows are
    # the recorded trace, and its class is None exactly when the terminal
    # row is nonnegative; else the class's area on the input is the
    # terminal's negative entry: the head if it is negative, else the
    # last size
    golden = json.loads((data_dir / "packing_golden.json").read_text())
    negative = 0
    for entry in golden["decide"]:
        inst = PackingInstance.of(F(entry["target"]),
                                  tuple(map(F, entry["balls"])))
        rows = []
        C = _reduce(inst.top, inst.sizes, rows)
        assert [[str(F(a, inst.D)) for a in row] for row in rows] == \
            entry["trace"]
        terminal = rows[-1]
        if min(terminal) >= 0:
            assert C is None
            continue
        negative += 1
        assert area(C, inst.top, inst.sizes) == (
            terminal[0] if terminal[0] < 0 else terminal[-1])
    assert negative == 52


# E(1,a) into the reference targets, a to 3000 with denominators to 36
# or a Fibonacci ratio to F(45)/F(44); as drawn, or scaled so that its
# area is about u times the target's, where the reductions are longest
_FIBONACCI = [1, 1]
while len(_FIBONACCI) < 46:
    _FIBONACCI.append(_FIBONACCI[-1] + _FIBONACCI[-2])
_TARGETS = [load_domain(DATA / f"{name}.json") for name in (
    "delta1", "delta2", "e12_convex", "omega2", "overhang", "square")]


def _embedded_vector(a, target, u):
    source = ToricDomain.ellipsoid(1, a)
    if u is not None:  # t^2 a / 2 = u area(target), to two decimals
        t = isqrt(int(20000 * u * target.area() / a))
        source = source.scale(F(max(t, 1), 100))
    inst = reduce_to_packing(EmbeddingProblem(source, target))
    return inst.top, list(inst.sizes)


_embedded = st.builds(
    _embedded_vector,
    st.one_of(st.fractions(min_value=1, max_value=3000, max_denominator=36),
              st.integers(1, 44).map(
                  lambda n: F(_FIBONACCI[n + 1], _FIBONACCI[n]))),
    st.sampled_from(_TARGETS),
    st.one_of(st.none(), st.fractions(min_value=F(1, 2), max_value=2,
                                      max_denominator=8)))
# integer vectors, the balls in any order: small sizes with many ties and
# the head near the volume bound, where reductions run longest, or both
# drawn freely
_drawn = st.one_of(
    st.builds(lambda balls, e: (max(0, isqrt(sum(a * a for a in balls)) + e),
                                balls),
              st.lists(st.integers(0, 20), max_size=40), st.integers(-2, 2)),
    st.tuples(st.integers(0, 10 ** 6),
              st.lists(st.integers(0, 10 ** 6), max_size=40)))


@given(vec=st.one_of(_embedded, _drawn))
@example(vec=(2, [2, 1]))
@example(vec=(1, [1, 1, 1]))
def test_kernel_classes_and_rows(vec):
    # every class the kernel reads is exceptional (E.E = -1, c1 = 1) or a
    # line class (+1, 3), with L >= 0, E <= 0, and its area on the input
    # is the terminal's negative entry; the rows are those of a replay
    # that re-sorts every row
    head, balls = vec
    rows = []
    C = _reduce(head, balls, rows)
    padded = balls + [0] * (3 - len(balls))
    assert rows == _replay([head, *padded])
    terminal = rows[-1]
    assert (C is None) == (min(terminal) >= 0)
    if C is None:
        return
    assert len(C.E) == len(padded) and C.Ehat == ()
    assert (intersection(C, C), c1(C)) in ((-1, 1), (1, 3)), C
    assert C.L >= 0 and max(C.E) <= 0
    assert area(C, head, balls) == (
        terminal[0] if terminal[0] < 0 else terminal[-1]) < 0


def test_scale_search_reads_valid_classes(monkeypatch):
    # every class the search reads is exceptional (E.E = -1, c1 = 1) or
    # a line class (+1, 3), with m_i >= 0, and its area at its probe is
    # the terminal's negative entry: the head if it is negative, else
    # the least size
    found = []

    def recorded(head, balls, rows=None):
        own = []
        C = _reduce(head, balls, own)
        if rows is not None:
            rows += own
        if C is not None:
            found.append((head, balls, C, own[-1]))
        return C

    monkeypatch.setattr(packing, "_reduce", recorded)
    for inst, scaled, precision in chain(_grid_searches(),
                                         _random_searches()):
        try:
            optimal_scale(inst, scaled, precision)
        except DomainError:
            pass
    kinds = Counter()
    for head, balls, C, terminal in found:
        assert isinstance(C, HomologyClass)
        assert len(C.E) == max(3, len(balls)) and C.Ehat == ()
        kind = (intersection(C, C), c1(C))
        assert kind in ((-1, 1), (1, 3)), C
        assert C.L >= 0 and max(C.E) <= 0
        assert area(C, head, balls) == (
            terminal[0] if terminal[0] < 0 else terminal[-1]) < 0
        kinds[kind] += 1
    assert kinds[-1, 1] > 1000, kinds


def test_scale_golden_reduction_count(data_dir, monkeypatch):
    # the 22 scale brackets of packing_golden.json take 283 reductions by
    # plain bisection (_bisection_scale)
    golden = json.loads((data_dir / "packing_golden.json").read_text())
    counts = _count_reductions(monkeypatch)
    for entry in golden["scale"]:
        optimal_embedding_scale(EmbeddingProblem(
            ToricDomain.concave(entry["source"]),
            ToricDomain.convex(entry["target"])), F(entry["precision"]))
    assert counts[0] == 108, counts
