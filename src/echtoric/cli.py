"""Batch command line: JSON reports on stdout, SVG files on request.

Exit codes: 0 a verdict or value was computed (an infeasible verdict is
still 0), 1 bad usage, 3 invalid input data, 4 a resource guard fired,
such as a report value with more digits than the interpreter prints or
an --approx one past the float range.  All rationals in reports are
strings, by fileio.ratio_text; decimal renderings only appear under an
"approx" key when --approx asks for them, marked inexact.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from fractions import Fraction
from itertools import chain
from math import lcm
from pathlib import Path
from typing import Optional, Sequence

from .blowups import inner_approximation, outer_approximation
from .capacities import concave_caps, convex_caps
from .domains import ToricDomain, contains
from .embeddings import EmbeddingProblem, capacity_report, reduce_to_packing
from .errors import DomainError, LimitError
from .fileio import canonical_json, ratio_text, read_domain
from .geometry import rational
from .latticepaths import oracle_convex_caps_upto
from .packing import PackingInstance, Verdict, decide_packing, optimal_scale
from .svgout import render_approximation, render_decomposition
from .weights import DEFAULT_MAX_NODES, concave_weights, convex_weights


# caps --oracle cross-checks indices up to this one
ORACLE_K_MAX = 20


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments; the contract here is 1
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _max_nodes() -> int:
    raw = os.environ.get("TDE_MAX_NODES")
    if raw is None:
        return DEFAULT_MAX_NODES
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"TDE_MAX_NODES must be an integer, got {raw!r}")
    if value <= 0:
        raise UsageError("TDE_MAX_NODES must be positive")
    return value


def _s(value: Fraction) -> str:
    return ratio_text(value.numerator, value.denominator)


def _area(dom: ToricDomain) -> str:
    return ratio_text(dom.twice_area(), 2 * dom.D * dom.D)


def _texts(D: int, rows) -> dict[int, str]:
    """The text of n/D for each distinct integer n in rows, made once."""
    return {n: ratio_text(n, D) for n in set(chain.from_iterable(rows))}


def _parse_balls(text: str) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",")]
    if not parts or parts == [""]:
        raise DomainError("ball list is empty")
    return tuple(rational(p) for p in parts)


def _load(path: str) -> tuple[ToricDomain, dict]:
    """The domain in a file, and the report's record of that file."""
    dom, sha256 = read_domain(path)
    return dom, {"path": path, "sha256": sha256}


def _expand(dom: ToricDomain, mn: int):
    """The weight expansion of dom and its decomposition."""
    return (concave_weights if dom.kind == "concave"
            else convex_weights)(dom, mn)


def _verdict_payload(verdict: Verdict, balls: int) -> dict:
    # one table of texts: trace[0] is the instance, zero-padded past balls
    text = _texts(verdict.D, verdict.rows).__getitem__
    trace = [list(map(text, row)) for row in verdict.rows]
    return {
        "instance": {"target": trace[0][0], "balls": trace[0][1:balls + 1]},
        "feasible": verdict.feasible,
        "failures": list(verdict.failures),
        "terminal": trace[-1],
        "volume_slack": _s(verdict.volume_slack),
        "trace": trace,
    }


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


# -- subcommands ------------------------------------------------------------

def cmd_weights(args) -> dict:
    mn = _max_nodes()
    dom, record = _load(args.file)
    exp, dec = _expand(dom, mn)
    # only a drawing reads the rows, one per cut; draw them and drop
    # them before the report is built
    svg = render_decomposition(dom, dec) if args.svg else None
    del dec
    D, top, sizes = exp.D, exp.top, exp.sizes
    text = _texts(D, [sizes, [top] if top else []]).__getitem__
    report = {
        "command": "weights",
        "input": record,
        "domain_type": dom.kind,
        "head": None if top is None else text(top),
        "weights": list(map(text, sizes)),
        "weight_count": len(sizes),
        "area": _area(dom),
    }
    if args.approx:
        report["approx"] = {
            "inexact": True,
            "head": None if top is None else top / D,
            "weights": [w / D for w in sizes],
        }
    # the file is written only once the whole report is built
    if svg is not None:
        _write_text(args.svg, svg)
        # one triangle per weight, and the head of a convex domain
        report["svg"] = {"path": args.svg,
                         "polygons": len(sizes) + (top is not None)}
    return report


def cmd_caps(args) -> dict:
    mn = _max_nodes()
    dom, record = _load(args.file)
    if args.k < 0:
        raise UsageError("--k must be nonnegative")
    if dom.kind == "concave" and args.oracle:
        raise UsageError("--oracle applies to convex domains only")
    exp = _expand(dom, mn)[0]
    seq = (concave_caps if dom.kind == "concave" else convex_caps)(exp, args.k)
    text = _texts(seq.D, [seq.ints]).__getitem__
    report = {
        "command": "caps",
        "input": record,
        "domain_type": dom.kind,
        "k": args.k,
        "values": list(map(text, seq.ints)),
        "certified": seq.certified,
    }
    if args.oracle:
        kk = min(args.k, ORACLE_K_MAX)
        pairs = oracle_convex_caps_upto(dom, kk)
        report["oracle"] = {
            "k_max": kk,
            "values": [_s(v) for v, _ in pairs],
            "witnesses": [[[x, y] for x, y in path.ints]
                          for _, path in pairs],
            "agrees": all(a * v.denominator == v.numerator * seq.D
                          for a, (v, _) in zip(seq.ints, pairs)),
        }
    if args.approx:
        report["approx"] = {"inexact": True,
                            "values": [a / seq.D for a in seq.ints]}
    return report


def cmd_pack(args) -> dict:
    instance = PackingInstance.of(rational(args.target),
                                  _parse_balls(args.balls))
    verdict = decide_packing(instance)
    report = {
        "command": "pack",
        **_verdict_payload(verdict, len(instance.sizes)),
    }
    if args.trace:
        certificate = {key: report[key] for key in (
            "instance", "feasible", "failures", "trace", "terminal")}
        _write_text(args.trace, canonical_json(certificate))
        report["trace_file"] = args.trace
    if args.approx:
        report["approx"] = {"inexact": True,
                            "volume_slack": float(verdict.volume_slack)}
    return report


def cmd_embed(args) -> dict:
    mn = _max_nodes()
    source, source_record = _load(args.source)
    target, target_record = _load(args.target)
    # refuse bad options before any expansion or reduction runs
    if args.report is not None and args.report < 0:
        raise UsageError("--report must be nonnegative")
    if args.scale_search is not None:
        precision = rational(args.scale_search)
        if precision <= 0:
            raise DomainError("precision must be positive")
    problem = EmbeddingProblem(source, target, mn)
    instance = reduce_to_packing(problem)
    verdict = decide_packing(instance)
    report = {
        "command": "embed",
        "inputs": {"source": source_record, "target": target_record},
        **_verdict_payload(verdict, len(instance.sizes)),
    }
    if args.report is not None:
        caps = capacity_report(problem, args.report)
        # both columns over one denominator, so one table formats them
        D = lcm(caps.source.D, caps.target.D)
        cols = [[n * (D // seq.D) for n in seq.ints]
                for seq in (caps.source, caps.target)]
        text = _texts(D, cols)
        report["capacities"] = {
            "k_max": args.report,
            "all_ok": caps.all_ok,
            "first_violation": caps.first_violation(),
            # every capacity the package computes is proved
            "rows": [[k, text[a], text[b], ok, True]
                     for k, (ok, a, b) in enumerate(zip(caps.oks, *cols))],
        }
    if args.scale_search is not None:
        # optimal_embedding_scale would build the instance a second time
        lo, hi = optimal_scale(instance, problem.source_weights, precision)
        report["scale"] = {
            "precision": _s(precision),
            "feasible_at": _s(lo),
            "infeasible_at": _s(hi),
        }
        if args.approx:
            report.setdefault("approx", {"inexact": True})
            report["approx"]["scale"] = [float(lo), float(hi)]
    return report


def cmd_svg(args) -> dict:
    mn = _max_nodes()
    dom, record = _load(args.file)
    report = {
        "command": "svg",
        "input": record,
        "domain_type": dom.kind,
        "output": args.out,
    }
    delta = None if args.decomposition else rational(args.approximation)
    # refuse a negative delta before the expansion runs
    if delta is not None and delta < 0:
        raise DomainError("perturbations must be nonnegative")
    exp, dec = _expand(dom, mn)
    if args.decomposition:
        _write_text(args.out, render_decomposition(dom, dec))
        report["mode"] = "decomposition"
        report["polygons"] = len(exp.sizes) + (exp.top is not None)
    else:
        if dom.kind == "concave":
            approx = outer_approximation(dec, delta)
            ok = contains(approx, dom)
        else:
            approx = inner_approximation(dec, delta)
            ok = contains(dom, approx)
        _write_text(args.out, render_approximation(dom, approx))
        report["mode"] = "approximation"
        report["delta"] = _s(delta)
        text = _texts(approx.D, approx.ints).__getitem__
        report["approx_boundary"] = [[text(x), text(y)]
                                     for x, y in approx.ints]
        report["area"] = _area(dom)
        report["approx_area"] = _area(approx)
        report["nesting_ok"] = ok
    return report


# -- wiring -----------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as is."""
    parser = _Parser(
        prog="echtoric",
        description="Exact embedding, packing and capacity computations "
                    "for toric domains.")
    parser.add_argument("--timing", action="store_true",
                        help="add wall clock seconds to the report "
                             "(breaks byte determinism)")
    parser.add_argument("--approx", action="store_true",
                        help="add inexact decimal renderings of rationals")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("weights", help="weight expansion of a domain file")
    p.add_argument("file")
    p.add_argument("--svg", metavar="PATH",
                   help="also draw the decomposition to PATH")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("caps", help="capacity sequence of a domain file")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True, metavar="K",
                   help="largest index to compute")
    p.add_argument("--oracle", action="store_true",
                   help="cross check against the exhaustive path search "
                        f"(convex only, k capped at {ORACLE_K_MAX}) with "
                        "witness paths")
    p.set_defaults(func=cmd_caps)

    p = sub.add_parser("pack", help="decide a ball packing instance")
    p.add_argument("--target", required=True, metavar="B",
                   help="target ball size, a rational like 5 or 10/3")
    p.add_argument("--balls", required=True, metavar="LIST",
                   help="comma separated ball sizes, e.g. 3,2,2/3")
    p.add_argument("--trace", metavar="PATH",
                   help="write the reduction certificate to PATH")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("embed",
                       help="decide embedding of a concave domain file "
                            "into a convex one")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--report", type=int, metavar="K",
                   help="add a capacity comparison up to index K")
    p.add_argument("--scale-search", metavar="PRECISION",
                   help="bracket the optimal scale factor to this precision")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("svg", help="draw a domain file")
    p.add_argument("file")
    p.add_argument("out")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--decomposition", action="store_true",
                      help="one polygon per weight")
    mode.add_argument("--approximation", metavar="DELTA",
                      help="overlay the delta approximation")
    p.set_defaults(func=cmd_svg)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report = args.func(args)
    except UsageError as exc:
        print(f"echtoric: error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, OSError) as exc:
        print(f"echtoric: invalid input: {exc}", file=sys.stderr)
        return 3
    # an --approx value past the float range is an OverflowError
    except (LimitError, OverflowError) as exc:
        print(f"echtoric: resource guard: {exc}", file=sys.stderr)
        return 4
    if args.timing:
        report["timing_seconds"] = round(time.perf_counter() - start, 6)
    sys.stdout.write(canonical_json(report))
    return 0
