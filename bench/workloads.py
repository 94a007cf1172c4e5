"""Seeded request lists of the four workloads, each request with its check.

A workload is a fixed list of CLI requests over domain files generated
from the seed.  The program only ever sees those files and the command
lines.  Sizes are drawn stratified (one draw per slot of a fixed grid)
so that every seed gives the same mix of cheap and expensive requests
and only the individual inputs move.  The 90th percentile (and in
`capacities` the median too) falls inside a block of near-identical
requests with a fixed number of requests above it, so that it compares
across seeds and one noisy request cannot move it far.

Every request carries a check of its JSON report.  Where an answer is
known independently of the program (McDuff-Schlenk and Frenkel-Mueller
embedding capacities, Euclid weight sequences of ellipsoids, the
ellipsoid capacity multiset, the ball staircase) the check compares
against it; elsewhere it checks identities the report must satisfy.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable, Optional

from echtoric.packing import cremona_step, defect


class CheckError(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    check: Callable[[dict], None]


@dataclass(frozen=True)
class Workload:
    name: str
    requests: tuple[Request, ...]
    files: dict  # file name -> contents, written before the run


# -- domain files -----------------------------------------------------------

def _domain(kind: str, points) -> str:
    boundary = [[str(F(x)), str(F(y))] for x, y in points]
    return json.dumps({"type": kind, "boundary": boundary})


def ellipsoid(a, b) -> str:
    """E(a, b): the triangle with x-intercept a and y-intercept b."""
    return _domain("concave", [(0, b), (a, 0)])


BALL3 = _domain("convex", [(0, 3), (3, 0)])
SQUARE = _domain("convex", [(0, 1), (1, 1), (1, 0)])


def omega2(s=1) -> str:
    return _domain("convex", [(0, s), (s, 2 * s), (5 * s, 0)])


# the reference targets of the package's own test data
REFERENCE_TARGETS = {
    "square": SQUARE,
    "delta1": _domain("convex", [(0, 1), (1, 0)]),
    "delta2": _domain("convex", [(0, 2), (2, 0)]),
    "e12_convex": _domain("convex", [(0, 1), (2, 0)]),
    "overhang": _domain("convex", [(0, 2), (2, 2), (3, 1), (2, 0)]),
    "omega2": omega2(),
}

_SLOPES = sorted({F(-n, d) for n in range(1, 8) for d in range(1, 5)})


def random_concave(rng: random.Random) -> list:
    """Up to four edges of strictly increasing negative slope."""
    slopes = sorted(rng.sample(_SLOPES, rng.randint(1, 4)))
    runs = [F(rng.randint(1, 4), rng.randint(1, 3)) for _ in slopes]
    x, y = F(0), -sum(s * dx for s, dx in zip(slopes, runs))
    points = [(x, y)]
    for s, dx in zip(slopes, runs):
        x, y = x + dx, y + s * dx
        points.append((x, y))
    return points


def random_convex(rng: random.Random, head: F) -> list:
    """Strictly clockwise boundary scaled to the given head max(x + y).

    Up to three sloped edges; sometimes a flat top or a final overhang.
    """
    slopes = sorted(rng.sample(_SLOPES, rng.randint(1, 3)), reverse=True)
    runs = [F(rng.randint(1, 3), rng.randint(1, 2)) for _ in slopes]
    overhang = rng.random() < 0.25
    x = F(0)
    y = -sum(s * dx for s, dx in zip(slopes, runs))
    if overhang:
        y += F(rng.randint(1, 2), 2)
    points = [(x, y)]
    if rng.random() < 0.25:
        x += F(rng.randint(1, 2), 2)
        points.append((x, y))
    for s, dx in zip(slopes, runs):
        x, y = x + dx, y + s * dx
        points.append((x, y))
    if overhang:
        points.append((x - min(F(1, 2), x / 2), F(0)))
    f = head / max(x + y for x, y in points)
    return [(f * x, f * y) for x, y in points]


def stratified(rng: random.Random, lo: float, hi: float, n: int,
               log: bool = True) -> list[float]:
    """n draws over [lo, hi], one near the middle of each of n equal slots.

    Keeping each draw in the middle fifth of its slot lets the seed move
    every input while the spread of sizes stays the same.
    """
    slots = [(i + 0.4 + 0.2 * rng.random()) / n for i in range(n)]
    if log:
        return [lo * (hi / lo) ** u for u in slots]
    return [lo + (hi - lo) * u for u in slots]


def small_rational(rng: random.Random, lo: F, hi: F, max_den: int = 6) -> F:
    den = rng.randint(1, max_den)
    return F(rng.randint(math.ceil(lo * den), math.floor(hi * den)), den)


# -- independent answers ----------------------------------------------------

def euclid_weights(a: F, b: F) -> list[F]:
    """Weight sequence of the ellipsoid E(a, b) by Euclid's algorithm."""
    out: list[F] = []
    while a and b:
        a, b = min(a, b), max(a, b)
        q = b // a
        out += [a] * q
        b -= q * a
    return sorted(out, reverse=True)


def ball_value(a: F, k: int) -> F:
    """c_k of the ball B(a): d*a for the least d with k <= d(d+3)/2."""
    d = 0
    while (d + 1) * (d + 2) // 2 <= k:
        d += 1
    return d * a


def ellipsoid_values(a: F, b: F, K: int) -> list[F]:
    return sorted(a * m + b * n
                  for m in range(K + 1) for n in range(K + 1 - m))[:K + 1]


def ball_c2(a: F) -> Optional[F]:
    """Square of the McDuff-Schlenk capacity c(a) of E(1, a) into balls.

    Known exactly on [1, 2] (c = a), [2, 4] (c = 2), at the staircase
    point a = 7 (c = 8/3) and from a = 289/36 on (c = sqrt(a)).
    """
    if 1 <= a <= 2:
        return a * a
    if 2 <= a <= 4:
        return F(4)
    if a == 7:
        return F(64, 9)
    if a >= F(289, 36):
        return a
    return None


def square_c2(a: F) -> Optional[F]:
    """Square of the Frenkel-Mueller capacity of E(1, a) into the cube.

    c = 1 on [1, 2], and the volume bound sqrt(a/2) from a = 7 1/32 on.
    """
    if 1 <= a <= 2:
        return F(1)
    if a >= F(225, 32):
        return a / 2
    return None


# -- report checks ----------------------------------------------------------

def _fr(values) -> list[F]:
    return [F(v) for v in values]


def check_reduction(rep: dict) -> None:
    """The Cremona trace replays step by step and the verdict matches it."""
    inst = rep["instance"]
    head = F(inst["target"])
    balls = sorted(_fr(inst["balls"]), reverse=True)
    start = [head] + balls + [F(0)] * max(0, 3 - len(balls))
    trace = [_fr(v) for v in rep["trace"]]
    expect(trace[0] == start, "trace does not start at the instance")
    for cur, nxt in zip(trace, trace[1:]):
        expect(list(cremona_step(cur)) == nxt, "trace step does not replay")
    terminal = trace[-1]
    expect(_fr(rep["terminal"]) == terminal, "terminal is not the last step")
    negative = min(terminal) < 0
    expect(negative or defect(terminal) <= 0, "trace stops early")
    slack = head * head - sum(a * a for a in balls)
    expect(F(rep["volume_slack"]) == slack, "volume slack is wrong")
    failures = (["negative-entry"] if negative else []) + \
               (["volume"] if slack < 0 else [])
    expect(rep["failures"] == failures, "failures do not match the trace")
    expect(rep["feasible"] == (not failures), "verdict does not match")


def embed_check(t2: Optional[F], precision: Optional[F]) -> Callable:
    """Check an embed report; t2 is the square of the optimal scale."""
    def check(rep: dict) -> None:
        expect(rep["command"] == "embed", "not an embed report")
        check_reduction(rep)
        if precision is None:
            expect("scale" not in rep, "unexpected scale block")
            return
        lo = F(rep["scale"]["feasible_at"])
        hi = F(rep["scale"]["infeasible_at"])
        expect(0 <= lo < hi and hi - lo <= precision, "bad scale bracket")
        expect(lo >= 1 if rep["feasible"] else hi <= 1,
               "bracket contradicts the verdict at scale 1")
        if t2 is not None:
            expect(lo * lo <= t2 <= hi * hi,
                   "bracket misses the known optimal scale")
    return check


def weights_check(expected: Optional[list[F]], svg: bool) -> Callable:
    def check(rep: dict) -> None:
        expect(rep["command"] == "weights", "not a weights report")
        ws = _fr(rep["weights"])
        expect(rep["weight_count"] == len(ws), "weight count is wrong")
        area2 = 2 * F(rep["area"])
        if rep["domain_type"] == "concave":
            expect(sum(w * w for w in ws) == area2, "sum of w^2 != 2 area")
        else:
            b = F(rep["head"])
            expect(b * b - sum(w * w for w in ws) == area2,
                   "b^2 - sum of w^2 != 2 area")
        if expected is not None:
            expect(ws == expected, "weights differ from Euclid's")
        if svg:
            head = rep["domain_type"] == "convex"
            expect(rep["svg"]["polygons"] == len(ws) + head,
                   "one polygon per weight expected")
    return check


def decomposition_check(count: int) -> Callable:
    def check(rep: dict) -> None:
        expect(rep["command"] == "svg" and rep["mode"] == "decomposition",
               "not a decomposition report")
        expect(rep["polygons"] == count, "one polygon per weight expected")
    return check


def approximation_check(nodes: int) -> Callable:
    def check(rep: dict) -> None:
        expect(rep["command"] == "svg" and rep["mode"] == "approximation",
               "not an approximation report")
        expect(rep["nesting_ok"] is True, "approximation does not nest")
        expect(F(rep["approx_area"]) >= F(rep["area"]),
               "outer approximation is smaller")
        expect(len(rep["approx_boundary"]) == nodes + 1,
               "one boundary edge per node expected")
    return check


def caps_check(values: Optional[list[F]],
               sandwich: Optional[tuple[F, F]] = None,
               oracle: bool = False) -> Callable:
    """values: exact c_0..c_K; sandwich: balls B(a) and B(b) around it."""
    def check(rep: dict) -> None:
        expect(rep["command"] == "caps", "not a caps report")
        got = _fr(rep["values"])
        expect(len(got) == rep["k"] + 1 and got[0] == 0, "bad sequence")
        expect(all(x <= y for x, y in zip(got, got[1:])), "not monotone")
        if values is not None:
            expect(got == values, "capacities differ from the known values")
            expect(rep["certified"] is True, "known values not certified")
        if sandwich is not None:
            inner, outer = sandwich
            expect(all(ball_value(inner, k) <= v <= ball_value(outer, k)
                       for k, v in enumerate(got)),
                   "capacities leave the ball sandwich")
        if oracle:
            o = rep["oracle"]
            expect(o["agrees"] is True, "oracle disagrees")
            kk = min(rep["k"], 12)
            expect(o["k_max"] == kk and len(o["witnesses"]) == kk + 1,
                   "oracle horizon is wrong")
            expect(o["values"] == rep["values"][:kk + 1],
                   "oracle values differ from the sequence")
    return check


def report_check(inner: Callable) -> Callable:
    """embed --report: the reduction checks plus a consistent comparison."""
    def check(rep: dict) -> None:
        inner(rep)
        caps = rep["capacities"]
        oks = [row[3] for row in caps["rows"]]
        expect(all(ok == (F(row[1]) <= F(row[2]))
                   for ok, row in zip(oks, caps["rows"])), "bad row")
        expect(caps["all_ok"] == all(oks), "all_ok does not match rows")
        expect(caps["first_violation"] ==
               next((r[0] for r in caps["rows"] if not r[3]), None),
               "first_violation does not match rows")
        if rep["feasible"]:
            expect(caps["all_ok"], "feasible embedding violates capacities")
    return check


# -- workloads --------------------------------------------------------------

class _Builder:
    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.names: dict[str, str] = {}  # contents -> file name
        self.requests: list[Request] = []

    def file(self, text: str) -> str:
        return self.names.setdefault(text, f"d{len(self.names):03d}.json")

    def add(self, check: Callable, *argv: str) -> None:
        self.requests.append(Request(tuple(argv), check))

    def done(self) -> Workload:
        self.rng.shuffle(self.requests)
        files = {name: text for text, name in self.names.items()}
        return Workload(self.name, tuple(self.requests), files)


STAIRCASE = (F(2), F(3), F(7), F(9), F(289, 36), F(50))
PRECISION = F(1, 1000)


def _embed_ellipsoid(b: _Builder, a: F, square: bool, scale: bool) -> None:
    src = b.file(ellipsoid(a, 1))
    tgt = b.file(SQUARE if square else BALL3)
    c2 = square_c2(a) if square else ball_c2(a)
    t2 = None if c2 is None else (1 if square else 9) / c2
    extra = ("--scale-search", str(PRECISION)) if scale else ()
    b.add(embed_check(t2, PRECISION if scale else None),
          "embed", src, tgt, *extra)


def decide(seed: int) -> Workload:
    """embed requests: staircase goldens, seeded ellipsoids, random pairs."""
    b = _Builder("decide", seed)
    for a in STAIRCASE:
        for square in (False, True):
            for scale in (False, True):
                _embed_ellipsoid(b, a, square, scale)
    # seeded a where c(a) is known for at least one of the targets
    for lo, hi in ((1, 2), (2, 4), (289 / 36, 60)):
        for i, u in enumerate(stratified(b.rng, lo, hi, 12, log=False)):
            den = b.rng.randint(1, 6)
            _embed_ellipsoid(b, F(round(u * den), den), i % 2 == 1,
                             (i // 2) % 2 == 0)
    # The median falls inside a block of twenty near-identical requests,
    # E(1, N) into B(3) at N ~ 40 without a scale search: about sixty
    # requests are cheaper and sixty dearer, so the median compares
    # across seeds although the random pairs below move by seed.
    for n in stratified(b.rng, 38, 42, 20, log=False):
        _embed_ellipsoid(b, F(round(n)), False, False)
    # long sources: packing vectors with hundreds of entries.  Eight sit
    # above a block of fourteen at N ~ 100, and every other request below
    # it, so the 90th percentile falls inside that block for every seed.
    for i, n in enumerate(stratified(b.rng, 150, 400, 8)):
        _embed_ellipsoid(b, F(round(n)), i % 2 == 1, True)
    for n in stratified(b.rng, 95, 105, 14):
        _embed_ellipsoid(b, F(round(n)), False, True)
    for i in range(42):
        src = b.file(_domain("concave", random_concave(b.rng)))
        tgt = b.file(_domain("convex", random_convex(
            b.rng, small_rational(b.rng, F(2), F(5), 4))))
        scale = i % 2 == 0
        extra = ("--scale-search", str(PRECISION)) if scale else ()
        b.add(embed_check(None, PRECISION if scale else None),
              "embed", src, tgt, *extra)
    return b.done()


FIBONACCI = (1, 1)
while len(FIBONACCI) < 48:
    FIBONACCI += (FIBONACCI[-1] + FIBONACCI[-2],)


def expand(seed: int) -> Workload:
    """Weight expansions, drawings and approximations of long Euclid runs."""
    b = _Builder("expand", seed)
    svg = "out.svg"

    def ellipsoid_requests(p: F, q: F, mode: str) -> None:
        f = b.file(ellipsoid(p, q))
        ws = euclid_weights(p, q)
        if mode == "weights":
            b.add(weights_check(ws, False), "weights", f)
        elif mode == "weights-svg":
            b.add(weights_check(ws, True), "weights", f, "--svg", svg)
        elif mode == "decomposition":
            b.add(decomposition_check(len(ws)), "svg", f, svg,
                  "--decomposition")
        else:
            b.add(approximation_check(len(ws)), "svg", f, svg,
                  "--approximation", "1/12")

    # E(1, N): N unit weights in one Euclid run.  Six requests sit above
    # a block of twelve approximations at N ~ 100 and every other
    # request below it, so the 90th percentile falls inside that block
    # and shows the superlinear cost of approximations.
    for mode, lo, hi, n in (("weights", 10, 400, 27),
                            ("weights", 1500, 3000, 3),
                            ("weights-svg", 10, 100, 18),
                            ("decomposition", 10, 100, 18),
                            ("approximation", 10, 60, 6),
                            ("approximation", 96, 104, 12),
                            ("approximation", 150, 200, 3)):
        for N in stratified(b.rng, lo, hi, n):
            ellipsoid_requests(F(1), F(round(N)), mode)
    # Fibonacci ratios: the deepest trees for their size
    for mode in ("weights", "decomposition", "approximation"):
        for n in stratified(b.rng, 8, 44, 7, log=False):
            k = int(n)
            ellipsoid_requests(F(FIBONACCI[k]), F(FIBONACCI[k + 1]), mode)
    # convex domains whose side piece is one long run
    for i, N in enumerate(stratified(b.rng, 10, 120, 12)):
        n = round(N)
        pts = [(0, 1), (1, 1), (n, 0)] if i % 4 < 2 else \
              [(0, n), (1, 1), (1, 0)]
        f = b.file(_domain("convex", pts))
        if i % 2:
            b.add(weights_check(None, True), "weights", f, "--svg", svg)
        else:
            b.add(weights_check(None, False), "weights", f)
    return b.done()


# c_0..c_20 of OMEGA2; they agree with the lattice-path oracle for k <= 9
OMEGA2_VALUES = tuple(F(v) for v in (
    0, 2, 4, 5, 6, 7, 8, 9, 10, 11, 11, 12, 13, 13, 14, 15, 15, 16, 16,
    17, 17))


def capacities(seed: int) -> Workload:
    """caps on concave sources and scaled OMEGA2, embed --report.

    Blocks of near-identical requests hold both percentiles, so that
    they compare across seeds: forty cheaper requests lie below a block
    of twenty-one at the median, and six dearer ones above a block of
    twelve at the 90th percentile.
    """
    b = _Builder("capacities", seed)
    # below the median: ellipsoids, checked against the brute-force
    # multiset, and random concave domains, against the ball sandwich
    for K in stratified(b.rng, 10, 36, 20, log=False):
        p = small_rational(b.rng, F(1), F(6), 3)
        q = small_rational(b.rng, F(1), F(6), 3)
        b.add(caps_check(ellipsoid_values(p, q, int(K))),
              "caps", b.file(ellipsoid(p, q)), "--k", str(int(K)))
    concave = [(K, False) for K in stratified(b.rng, 10, 36, 20, log=False)]
    concave += [(K, True) for K in stratified(b.rng, 80, 100, 6, log=False)]
    for K, _ in concave:
        pts = random_concave(b.rng)
        sums = [x + y for x, y in pts]
        b.add(caps_check(None, (min(sums), max(sums))),
              "caps", b.file(_domain("concave", pts)), "--k", str(int(K)))
    # the median block: E(1, N) with N ~ 11 at K ~ 62
    for u, K in zip(stratified(b.rng, 10, 12, 21, log=False),
                    stratified(b.rng, 60, 64, 21, log=False)):
        N = F(round(u))
        b.add(caps_check(ellipsoid_values(F(1), N, int(K))),
              "caps", b.file(ellipsoid(1, N)), "--k", str(int(K)))
    # The complement budget L = 8(K + b^2) makes scaled targets dearer:
    # six scaled ones sit above the block of twelve unscaled ones at
    # K ~ 12 that holds the 90th percentile.
    for s, n, lo, hi in ((F(1), 4, 6, 10), (F(1), 12, 11, 14),
                         (F(3, 2), 4, 6, 21), (F(2), 1, 6, 21),
                         (F(3), 1, 6, 21)):
        for K in stratified(b.rng, lo, hi, n, log=False):
            k = int(K)
            b.add(caps_check([s * v for v in OMEGA2_VALUES[:k + 1]]),
                  "caps", b.file(omega2(s)), "--k", str(k))
    # targets with side weights, so that every report runs convex_caps
    for i, K in enumerate(stratified(b.rng, 10, 21, 16, log=False)):
        if i % 2:
            src = ellipsoid(small_rational(b.rng, F(1), F(4), 3), 1)
        else:
            src = _domain("concave", random_concave(b.rng))
        tgt = SQUARE if i % 4 < 2 else _domain("convex", random_convex(
            b.rng, small_rational(b.rng, F(1), F(2), 4)))
        b.add(report_check(embed_check(None, None)), "embed", b.file(src),
              b.file(tgt), "--report", str(int(K)))
    return b.done()


def oracle(seed: int) -> Workload:
    """caps --oracle on the reference targets and small seeded ones."""
    b = _Builder("oracle", seed)
    plan = [(name, 3) for name in REFERENCE_TARGETS]
    plan += [(name, 4) for name in REFERENCE_TARGETS if name != "omega2"]
    # Five requests sit above a block of twelve at about 90 ms and every
    # other request below it, so the 90th percentile falls inside that
    # block for every seed.  The block is E(2,1) scaled by a seeded s:
    # the search compares path values, which all scale by s.
    plan += [("delta2", 8), ("delta1", 7), ("delta2", 6), ("omega2", 5),
             ("overhang", 5)]
    for name, k in plan:
        b.add(caps_check(None, oracle=True), "caps",
              b.file(REFERENCE_TARGETS[name]), "--k", str(k), "--oracle")
    for u in stratified(b.rng, 1, 1.5, 12, log=False):
        den = b.rng.randint(2, 6)
        s = F(round(u * den), den)
        b.add(caps_check(None, oracle=True), "caps",
              b.file(_domain("convex", [(0, s), (2 * s, 0)])),
              "--k", "5", "--oracle")
    # heads of at most 3/2 keep convex_caps, which grows with the head
    # squared, well below the oracle itself
    for k, n in ((3, 48), (4, 24)):
        for _ in range(n):
            head = small_rational(b.rng, F(1), F(3, 2), 4)
            tgt = _domain("convex", random_convex(b.rng, head))
            b.add(caps_check(None, oracle=True), "caps", b.file(tgt),
                  "--k", str(k), "--oracle")
    return b.done()


WORKLOADS = {"decide": decide, "expand": expand,
             "capacities": capacities, "oracle": oracle}
