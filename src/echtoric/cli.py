"""Batch command line: JSON reports on stdout, SVG files on request.

Exit codes: 0 a verdict or value was computed (an infeasible verdict is
still 0), 1 bad usage, 3 invalid input data, 4 a resource guard fired,
such as a report value with more digits than the interpreter prints or
an --approx one past the float range.  All rationals in reports are
strings, by fileio.ratio_text; decimal renderings only appear under an
"approx" key when --approx asks for them, marked inexact.

The command line is read against one table, COMMANDS: each subcommand's
handler, positionals and options.  Parser.parse_args gives its grammar.
"""

from __future__ import annotations

import functools
import os
import re
import sys
import time
from fractions import Fraction
from itertools import chain
from math import lcm
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

# what every data command reads; a handler imports the modules only it
# needs where it runs.  capacities stays here for caps, and because the
# benchmark's traced mode (bench/run.py) reads it from sys.modules before
# any request runs
from .capacities import concave_caps, convex_caps
from .domains import ToricDomain, contains
from .errors import DomainError, LimitError
from .fileio import _overwrite, canonical_json, ratio_text, read_domain
from .geometry import rational
from .weights import DEFAULT_MAX_NODES, concave_weights, convex_weights


# caps --oracle cross-checks indices up to this one
ORACLE_K_MAX = 20


class UsageError(Exception):
    pass


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


def _verdict_payload(verdict, balls: int) -> dict:
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


# -- subcommands ------------------------------------------------------------

def cmd_weights(args) -> dict:
    mn = _max_nodes()
    dom, record = _load(args.file)
    exp, dec = _expand(dom, mn)
    # only a drawing reads the rows, one per cut; draw them and drop
    # them before the report is built
    svg = None
    if args.svg:
        from .svgout import render_decomposition
        svg = render_decomposition(dom, dec)
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
        _overwrite(args.svg, svg)
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
        from .latticepaths import oracle_convex_caps_upto
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
    from .packing import PackingInstance, decide_packing
    instance = PackingInstance.of(rational(args.target),
                                  _parse_balls(args.balls))
    verdict = decide_packing(instance)
    report = {
        "command": "pack",
        **_verdict_payload(verdict, len(instance.sizes)),
    }
    if args.approx:
        report["approx"] = {"inexact": True,
                            "volume_slack": float(verdict.volume_slack)}
    # the file is written only once the whole report is built
    if args.trace:
        certificate = {key: report[key] for key in (
            "instance", "feasible", "failures", "trace", "terminal")}
        _overwrite(args.trace, canonical_json(certificate))
        report["trace_file"] = args.trace
    return report


def cmd_embed(args) -> dict:
    from .embeddings import (EmbeddingProblem, capacity_report,
                             reduce_to_packing)
    from .packing import decide_packing, optimal_scale
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
    from .svgout import render_approximation, render_decomposition
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
        svg = render_decomposition(dom, dec)
        report["mode"] = "decomposition"
        report["polygons"] = len(exp.sizes) + (exp.top is not None)
    else:
        from .blowups import inner_approximation, outer_approximation
        if dom.kind == "concave":
            approx = outer_approximation(dec, delta)
            ok = contains(approx, dom)
        else:
            approx = inner_approximation(dec, delta)
            ok = contains(dom, approx)
        svg = render_approximation(dom, approx)
        report["mode"] = "approximation"
        report["delta"] = _s(delta)
        text = _texts(approx.D, approx.ints).__getitem__
        report["approx_boundary"] = [[text(x), text(y)]
                                     for x, y in approx.ints]
        report["area"] = _area(dom)
        report["approx_area"] = _area(approx)
        report["nesting_ok"] = ok
    # the file is written only once the whole report is built
    _overwrite(args.out, svg)
    return report


# -- the command table -------------------------------------------------------

FLAG, INT, TEXT, HELP = "flag", "int", "text", "help"


class Option:
    __slots__ = ("kind", "help", "metavar")

    def __init__(self, kind: str, help: str, metavar: str = "") -> None:
        self.kind = kind  # FLAG, INT or TEXT; HELP for -h and --help
        self.help = help
        self.metavar = metavar


class Command:
    __slots__ = ("handler", "help", "positionals", "options", "required",
                 "one_of")

    def __init__(self, handler: Optional[Callable[[SimpleNamespace], dict]],
                 help: str, positionals: tuple[str, ...],
                 options: dict[str, Option], required: tuple[str, ...] = (),
                 one_of: tuple[str, ...] = ()) -> None:
        self.handler = handler
        self.help = help
        self.positionals = positionals
        self.options = options
        self.required = required  # options that must be given
        self.one_of = one_of  # options of which exactly one is given


# the global flags, read before the subcommand
TOP = Command(None, "Exact embedding, packing and capacity computations "
                    "for toric domains.", (), {
    "--timing": Option(FLAG, "add wall clock seconds to the report "
                             "(breaks byte determinism)"),
    "--approx": Option(FLAG, "add inexact decimal renderings of rationals"),
})

COMMANDS = {
    "weights": Command(cmd_weights, "weight expansion of a domain file",
                       ("file",), {
        "--svg": Option(TEXT, "also draw the decomposition to PATH", "PATH"),
    }),
    "caps": Command(cmd_caps, "capacity sequence of a domain file",
                    ("file",), {
        "--k": Option(INT, "largest index to compute", "K"),
        "--oracle": Option(FLAG, "cross check against the exhaustive path "
                                 f"search (convex only, k capped at "
                                 f"{ORACLE_K_MAX}) with witness paths"),
    }, required=("--k",)),
    "pack": Command(cmd_pack, "decide a ball packing instance", (), {
        "--target": Option(TEXT, "target ball size, a rational like 5 or "
                                 "10/3", "B"),
        "--balls": Option(TEXT, "comma separated ball sizes, e.g. 3,2,2/3",
                          "LIST"),
        "--trace": Option(TEXT, "write the reduction certificate to PATH",
                          "PATH"),
    }, required=("--target", "--balls")),
    "embed": Command(cmd_embed, "decide embedding of a concave domain file "
                                "into a convex one", ("source", "target"), {
        "--report": Option(INT, "add a capacity comparison up to index K",
                           "K"),
        "--scale-search": Option(TEXT, "bracket the optimal scale factor to "
                                       "this precision", "PRECISION"),
    }),
    "svg": Command(cmd_svg, "draw a domain file", ("file", "out"), {
        "--decomposition": Option(FLAG, "one polygon per weight"),
        "--approximation": Option(TEXT, "overlay the delta approximation",
                                  "DELTA"),
    }, one_of=("--decomposition", "--approximation")),
}

_HELP = Option(HELP, "show this help message and exit")

# a token that reads as a negative number is a value, never an option
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$").match


class ArgvError(UsageError):
    """A command line the table refuses, with the subcommand it names
    (None before one is read)."""

    def __init__(self, message: str, command: Optional[str]) -> None:
        super().__init__(message)
        self.command = command


class HelpRequest(Exception):
    """-h or --help, for the global flags (None) or a subcommand."""

    def __init__(self, command: Optional[str]) -> None:
        super().__init__(command)
        self.command = command


class Parser:
    """The command table, read in one pass over argv.

    Global flags come before the subcommand; the subcommand's positionals
    and options follow in any order.  An option is named in full or by a
    unique prefix, and takes its value as the next token or after "=";
    a repeated option keeps its last value.  A token that reads as a
    negative number (_NEGATIVE) is a value, and after "--" every token is
    a positional.  -h or --help asks for help at either level.  A bad
    subcommand, an ambiguous option, a missing or non-integer value, a
    value given to a flag and a second one_of option are refused where
    they stand; unknown options, extra or missing positionals and missing
    options once argv is read.
    """

    def __init__(self, top: Command, commands: dict[str, Command]) -> None:
        self.levels = {None: top, **commands}
        self.commands = commands
        # every level's options by name, -h and --help first
        self.options = {name: {"-h": _HELP, "--help": _HELP, **c.options}
                        for name, c in self.levels.items()}
        self.dests = {name: name[2:].replace("-", "_")
                      for c in self.levels.values() for name in c.options}
        # each level's fields before argv is read
        self.defaults = {
            name: {self.dests[o]: False if option.kind == FLAG else None
                   for o, option in c.options.items()}
            for name, c in self.levels.items()}
        for name, c in commands.items():
            self.defaults[name].update(subcommand=name, func=c.handler)

    def _find(self, command: Optional[str],
              token: str) -> Optional[tuple[str, Optional[str]]]:
        """The option a token names and the value glued to it, or None for
        a positional.  An unknown option is a name the level lacks."""
        options = self.options[command]
        if token in options:
            return token, None
        if token[:1] != "-" or token in ("-", "--"):
            return None
        name, eq, glued = token.partition("=")
        if eq and name in options:
            return name, glued
        if token[1] == "-":  # a prefix of a long option
            hits = [o for o in options if o.startswith(name)]
            if len(hits) > 1:
                raise ArgvError(f"ambiguous option: {token} could match "
                                f"{', '.join(hits)}", command)
            if hits:
                return hits[0], glued if eq else None
        elif token[:2] in options:  # a short option with text glued on
            return token[:2], token[2:]
        if _NEGATIVE(token) or " " in token:
            return None
        return token, None

    def parse_args(self, argv: Sequence[str]) -> SimpleNamespace:
        """The fields the handlers read; an ArgvError or a HelpRequest."""
        command, spec = None, self.levels[None]
        options = self.options[None]
        fields = dict(self.defaults[None])
        given: set[str] = set()
        unknown: list[str] = []
        placed = 0
        ended = False  # after "--" every token is a positional
        i, n = 0, len(argv)
        while i < n:
            token = argv[i]
            i += 1
            if ended:
                found = None
            elif token == "--" and command is not None:
                ended = True
                continue
            else:
                found = self._find(command, token)
            if found is None:
                if command is None:
                    if token not in self.commands:
                        raise ArgvError(
                            f"invalid choice: {token!r} (choose from "
                            f"{', '.join(self.commands)})", None)
                    command, spec = token, self.commands[token]
                    options = self.options[token]
                    fields.update(self.defaults[token])
                elif placed < len(spec.positionals):
                    fields[spec.positionals[placed]] = token
                    placed += 1
                else:
                    unknown.append(token)
                continue
            name, glued = found
            option = options.get(name)
            if option is None:
                unknown.append(token)
                continue
            if option.kind in (FLAG, HELP):
                if glued is not None:
                    raise ArgvError(f"argument {name}: ignored explicit "
                                    f"argument {glued!r}", command)
                if option.kind == HELP:
                    # an ambiguous option further on is still refused
                    for token in argv[i:]:
                        if token == "--":
                            break
                        self._find(command, token)
                    raise HelpRequest(command)
                value = True
            else:
                if glued is None:
                    if (i == n or argv[i] == "--"
                            or self._find(command, argv[i]) is not None):
                        raise ArgvError(f"argument {name}: expected one "
                                        "argument", command)
                    glued = argv[i]
                    i += 1
                value = glued
                if option.kind == INT:
                    try:
                        value = int(glued)
                    except ValueError:
                        raise ArgvError(f"argument {name}: invalid int "
                                        f"value: {glued!r}", command) from None
            if name in spec.one_of:
                for other in given.intersection(spec.one_of) - {name}:
                    raise ArgvError(f"argument {name}: not allowed with "
                                    f"argument {other}", command)
            given.add(name)
            fields[self.dests[name]] = value
        if command is None:
            raise ArgvError("the following arguments are required: "
                            "subcommand", None)
        missing = [*spec.positionals[placed:],
                   *(o for o in spec.required if o not in given)]
        if missing:
            raise ArgvError("the following arguments are required: "
                            f"{', '.join(missing)}", command)
        if spec.one_of and given.isdisjoint(spec.one_of):
            raise ArgvError(f"one of the arguments {' '.join(spec.one_of)} "
                            "is required", command)
        if unknown:
            raise ArgvError(f"unrecognized arguments: {' '.join(unknown)}",
                            command)
        return SimpleNamespace(**fields)

    def usage(self, command: Optional[str]) -> str:
        spec = self.levels[command]

        def word(name: str) -> str:
            option = spec.options[name]
            return name if option.kind == FLAG else f"{name} {option.metavar}"

        words = ["usage: echtoric", *([command] if command else []), "[-h]"]
        for name in spec.options:
            if name not in spec.one_of:
                words.append(word(name) if name in spec.required
                             else f"[{word(name)}]")
            elif name == spec.one_of[0]:
                words.append(f"({' | '.join(map(word, spec.one_of))})")
        if command is None:
            words.append(f"{{{','.join(self.commands)}}} ...")
        return " ".join([*words, *spec.positionals])

    def help(self, command: Optional[str]) -> str:
        spec = self.levels[command]
        sections = []
        if command is None:
            sections.append(("commands", [(name, c.help) for name, c
                                          in self.commands.items()]))
        if spec.positionals:
            sections.append(("positional arguments",
                             [(name, "") for name in spec.positionals]))
        sections.append(("options", [("-h, --help", _HELP.help)] + [
            (name if o.kind == FLAG else f"{name} {o.metavar}", o.help)
            for name, o in spec.options.items()]))
        width = max(len(label) for _, rows in sections for label, _ in rows)
        lines = [self.usage(command), ""]
        if command is None:
            lines += [spec.help, ""]
        for title, rows in sections:
            lines.append(f"{title}:")
            lines += [f"  {label:<{width}}  {text}".rstrip()
                      for label, text in rows]
            lines.append("")
        return "\n".join(lines)


@functools.cache
def build_parser() -> Parser:
    """The table parser, built once per process: parsing leaves it as is."""
    return Parser(TOP, COMMANDS)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    except HelpRequest as request:
        sys.stdout.write(parser.help(request.command))
        return 0
    except ArgvError as exc:
        sys.stderr.write(f"{parser.usage(exc.command)}\n"
                         f"echtoric: error: {exc}\n")
        return 1
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
