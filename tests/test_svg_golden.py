"""SVG drawings pinned byte for byte.

svg_golden.json holds the sha256 of every drawing below, made the way
the CLI makes it (`svg --decomposition`, `svg --approximation DELTA`).
Regenerate it only when a drawing is meant to change:

    PYTHONPATH=src:tests python tests/test_svg_golden.py
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from echtoric import (DomainError, ToricDomain, concave_weights,
                      convex_weights, inner_approximation,
                      outer_approximation, render_approximation,
                      render_decomposition)
from echtoric.fileio import load_domain

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "svg_golden.json"
DELTAS = (Fraction(1, 12), Fraction(1, 1000))


def _fib(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def golden_domains() -> dict[str, ToricDomain]:
    doms = {p.stem: load_domain(str(p)) for p in sorted(DATA.glob("*.json"))
            if "golden" not in p.stem}
    for n in (10, 100, 200):
        doms[f"E(1,{n})"] = ToricDomain.ellipsoid(1, n)
    for k in (8, 20):
        doms[f"E(F{k},F{k + 1})"] = ToricDomain.ellipsoid(_fib(k), _fib(k + 1))
    return doms


THIN = ToricDomain.convex([(0, 1), (1, 1), (40, 0)])


def _drawings(name: str, dom: ToricDomain, approximate: bool):
    """(case, svg text) pairs, as `svg --decomposition|--approximation`."""
    expand = concave_weights if dom.kind == "concave" else convex_weights
    tree = expand(dom)[1]
    yield (f"{name} decomposition", render_decomposition(dom, tree))
    if not approximate:
        return
    for delta in DELTAS:
        try:
            approx = (outer_approximation if dom.kind == "concave"
                      else inner_approximation)(tree, delta)
        except DomainError:
            continue  # no approximation at this delta
        yield (f"{name} approximation {delta}",
               render_approximation(dom, approx))


def svg_cases():
    for name, dom in golden_domains().items():
        yield from _drawings(name, dom, approximate=True)
    yield from _drawings("thin (0,1),(1,1),(40,0)", THIN, approximate=False)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_drawing_matches_its_golden_hash(golden):
    seen = {case: _sha(text) for case, text in svg_cases()}
    assert sorted(seen) == sorted(golden)
    bad = [case for case in golden if seen[case] != golden[case]]
    assert not bad, bad


if __name__ == "__main__":
    table = {case: _sha(text) for case, text in svg_cases()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"{len(table)} drawings -> {GOLDEN}")
