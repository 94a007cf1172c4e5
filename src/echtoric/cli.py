"""Batch command line: JSON reports on stdout, SVG files on request.

Exit codes: 0 a verdict or value was computed (an infeasible verdict is
still 0), 1 bad usage, 3 invalid input data, 4 a resource guard fired.
All rationals in reports are strings; decimal renderings only appear
under an "approx" key when --approx asks for them, marked inexact.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .blowups import inner_approximation, outer_approximation
from .capacities import concave_caps, convex_caps
from .domains import ToricDomain, contains
from .embeddings import EmbeddingProblem, capacity_report, reduce_to_packing
from .errors import DomainError, GeometryError, LimitError
from .fileio import canonical_json, read_domain
from .geometry import rational
from .latticepaths import oracle_convex_caps_upto
from .packing import PackingInstance, Verdict, decide_packing, optimal_scale
from .svgout import (decomposition_polygons, render_approximation,
                     render_decomposition)
from .weights import DEFAULT_MAX_NODES, concave_weights, convex_weights


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


def _sv(values) -> list[str]:
    return [str(v) for v in values]


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
    """The weight expansion of dom and its decomposition tree."""
    return (concave_weights if dom.kind == "concave"
            else convex_weights)(dom, mn)


def _verdict_payload(verdict: Verdict) -> dict:
    return {
        "feasible": verdict.feasible,
        "failures": list(verdict.failures),
        "terminal": _sv(verdict.terminal),
        "volume_slack": str(verdict.volume_slack),
        "trace": [_sv(vec) for vec in verdict.trace],
    }


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


# -- subcommands ------------------------------------------------------------

def cmd_weights(args) -> dict:
    mn = _max_nodes()
    dom, record = _load(args.file)
    exp, tree = _expand(dom, mn)
    report = {
        "command": "weights",
        "input": record,
        "domain_type": dom.kind,
        "head": None if exp.head is None else str(exp.head),
        "weights": _sv(exp.weights),
        "weight_count": len(exp.weights),
        "area": str(dom.area()),
    }
    if args.svg:
        polys = decomposition_polygons(tree)
        _write_text(args.svg, render_decomposition(dom, polys))
        report["svg"] = {"path": args.svg, "polygons": len(polys)}
    if args.approx:
        report["approx"] = {
            "inexact": True,
            "head": None if exp.head is None else float(exp.head),
            "weights": [float(w) for w in exp.weights],
        }
    return report


def cmd_caps(args) -> dict:
    mn = _max_nodes()
    dom, record = _load(args.file)
    if args.k < 0:
        raise UsageError("--k must be nonnegative")
    if dom.kind == "concave" and args.oracle:
        raise UsageError("--oracle applies to convex domains only")
    exp, _ = _expand(dom, mn)
    seq = (concave_caps if dom.kind == "concave" else convex_caps)(exp, args.k)
    report = {
        "command": "caps",
        "input": record,
        "domain_type": dom.kind,
        "k": args.k,
        "values": _sv(seq.values),
        "certified": seq.certified,
    }
    if args.oracle:
        kk = min(args.k, 12)
        pairs = oracle_convex_caps_upto(dom, kk)
        report["oracle"] = {
            "k_max": kk,
            "values": _sv(v for v, _ in pairs),
            "witnesses": [[[int(p.x), int(p.y)] for p in path.vertices]
                          for _, path in pairs],
            "agrees": all(seq[k] == pairs[k][0] for k in range(kk + 1)),
        }
    if args.approx:
        report["approx"] = {"inexact": True,
                            "values": [float(v) for v in seq.values]}
    return report


def cmd_pack(args) -> dict:
    instance = PackingInstance(rational(args.target),
                               _parse_balls(args.balls))
    verdict = decide_packing(instance)
    report = {
        "command": "pack",
        "instance": {"target": str(instance.target),
                     "balls": _sv(instance.balls)},
        **_verdict_payload(verdict),
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
    problem = EmbeddingProblem(source, target, mn)
    instance = reduce_to_packing(problem)
    verdict = decide_packing(instance)
    report = {
        "command": "embed",
        "inputs": {"source": source_record, "target": target_record},
        "instance": {"target": str(instance.target),
                     "balls": _sv(instance.balls)},
        **_verdict_payload(verdict),
    }
    if args.report is not None:
        if args.report < 0:
            raise UsageError("--report must be nonnegative")
        caps = capacity_report(problem, args.report)
        report["capacities"] = {
            "k_max": args.report,
            "all_ok": caps.all_ok,
            "first_violation": caps.first_violation(),
            # every capacity the package computes is proved
            "rows": [[r.k, str(r.source_value), str(r.target_value),
                      r.ok, True] for r in caps.rows],
        }
    if args.scale_search is not None:
        precision = rational(args.scale_search)
        # optimal_embedding_scale would build the instance a second time
        lo, hi = optimal_scale(instance, problem.source_weights.weights,
                               precision)
        report["scale"] = {
            "precision": str(precision),
            "feasible_at": str(lo),
            "infeasible_at": str(hi),
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
    _, tree = _expand(dom, mn)
    if args.decomposition:
        polys = decomposition_polygons(tree)
        _write_text(args.out, render_decomposition(dom, polys))
        report["mode"] = "decomposition"
        report["polygons"] = len(polys)
    else:
        if dom.kind == "concave":
            approx = outer_approximation(tree, delta)
            ok = contains(approx, dom)
        else:
            approx = inner_approximation(tree, delta)
            ok = contains(dom, approx)
        _write_text(args.out, render_approximation(dom, approx))
        report["mode"] = "approximation"
        report["delta"] = str(delta)
        report["approx_boundary"] = [[str(p.x), str(p.y)]
                                     for p in approx.boundary]
        report["area"] = str(dom.area())
        report["approx_area"] = str(approx.area())
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
                        "(convex only, k capped at 12) with witness paths")
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
    except (DomainError, GeometryError) as exc:
        print(f"echtoric: invalid input: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"echtoric: invalid input: {exc}", file=sys.stderr)
        return 3
    except LimitError as exc:
        print(f"echtoric: resource guard: {exc}", file=sys.stderr)
        return 4
    if args.timing:
        report["timing_seconds"] = round(time.perf_counter() - start, 6)
    sys.stdout.write(canonical_json(report))
    return 0
