"""Layer spans for the traced pass, and the per-layer metrics built from them.

The traced pass runs the same CLI requests as the timed pass, with every
layer's public entry points wrapped from outside the package: each
binding of an entry point, in every module of the package that imports
it, is replaced by a wrapper that opens a span for the callee's layer.
A call from one layer into another therefore shows as a child span, and
a layer's self time is its spans' durations minus what their children
cover.  The package itself is not changed, and the wrappers are removed
again after each traced pass.

`geometry` and `errors` have no entry points here: they only run inside
other layers, so their cost is part of those layers' self time.  So is
the cost of any entry point a later version of the package no longer
has; `install` reports such names instead of failing.

Which end-to-end metric each per-layer metric should move, and where:

- weights.busy_s, .calls, .nodes: expand throughput and p50 latency,
  decide p50 latency; nodes also expand peak memory, as every node
  keeps its own domain and maps.
- packing.decide_s, .scale_s, .calls, .moves, .vector_entries: decide
  throughput and p90 latency.
- embeddings.busy_s (instance assembly, capacity-report rows): decide
  and capacities p50 latency.
- capacities.concave_s, .convex_s, .calls, .certified_frac and the
  computed max-plus and min-plus cells: capacities p90 latency and
  peak memory.
- latticepaths.busy_s, .calls, .k_total: oracle throughput and p90
  latency.
- blowups.busy_s, .approx_vertices, svgout.busy_s, .bytes: expand p90
  latency.
- fileio.busy_s, .bytes, domains.busy_s, cli.busy_s: decide p50
  latency, where requests are short.
- trace.overhead_s: none; it is the cost of tracing itself.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from typing import Callable, Optional

# Each entry point maps its call arguments and result to the work
# counts of its span.  The counts are read from the result, never from
# the package's internals, and are cheap next to the call itself.


def _weights_counts(args, result) -> dict:
    expansion = result[0]
    # one decomposition node per weight, plus the head of a convex domain
    return {"nodes": len(expansion.weights) + (expansion.head is not None),
            "head": expansion.head}


def _caps_counts(args, result) -> dict:
    return {"K": len(result.values) - 1, "certified": bool(result.certified)}


def _convex_caps_counts(args, result) -> dict:
    # convex_caps(domain, K, L=None, ...): None asks for the default budget
    return {**_caps_counts(args, result),
            "L": args[2] if len(args) > 2 else None}


def _packing_counts(args, result) -> dict:
    return {"moves": len(result.trace) - 1, "entries": len(result.trace[0])}


def _file_counts(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _text_counts(args, result) -> dict:
    return {"bytes": len(result)}


def _oracle_counts(args, result) -> dict:
    return {"k": len(result) - 1}


def _approx_counts(args, result) -> dict:
    return {"vertices": len(result.boundary)}


# layer -> (entry point, work counts); "Class.method" wraps a method
ENTRY_POINTS: dict[str, tuple[tuple[str, Optional[Callable]], ...]] = {
    "fileio": (("load_domain", _file_counts),
               ("digest_file", _file_counts),
               ("canonical_json", _text_counts)),
    "domains": (("ToricDomain.__post_init__", None),
                ("contains", None)),
    "weights": (("concave_weights", _weights_counts),
                ("convex_weights", _weights_counts)),
    "embeddings": (("reduce_to_packing", None),
                   ("capacity_report", None),
                   ("optimal_embedding_scale", None)),
    "packing": (("decide_packing", _packing_counts),
                ("optimal_scale", None)),
    "capacities": (("concave_caps", _caps_counts),
                   ("convex_caps", _convex_caps_counts)),
    "latticepaths": (("oracle_convex_caps_upto", _oracle_counts),),
    "blowups": (("outer_approximation", _approx_counts),
                ("inner_approximation", _approx_counts)),
    "svgout": (("decomposition_polygons", None),
               ("render_decomposition", _text_counts),
               ("render_approximation", _text_counts)),
}

ROOT_LAYER = "cli"


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "request",
                 "counts")

    def __init__(self, layer: str, name: str, parent: int, request: int,
                 start: float = 0.0, end: float = 0.0) -> None:
        self.layer = layer
        self.name = name
        self.parent = parent
        self.request = request
        self.start = start
        self.end = end
        self.counts: Optional[dict] = None


class Tracer:
    """Spans of one traced pass, kept in memory in the order they opened."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request = -1

    def open(self, layer: str, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = Span(layer, name, parent, self._request)
        self.spans.append(span)
        return span

    def close(self) -> None:
        self._stack.pop()

    def request(self, request_id: int, call: Callable[[], int]) -> int:
        """Run one request under a root span of the CLI layer."""
        self._request = request_id
        span = self.open(ROOT_LAYER, "main")
        span.start = time.perf_counter()
        try:
            return call()
        finally:
            span.end = time.perf_counter()
            self.close()

    def wrap(self, layer: str, name: str, fn: Callable,
             counts: Optional[Callable]) -> Callable:
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(layer, name)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self.close()
            if counts is not None:
                span.counts = counts(args, result)
            return result

        return traced


def install(tracer: Tracer, package) -> tuple[list, list[str]]:
    """Wrap every entry point of `package`; returns (undo list, missing)."""
    prefix = package.__name__ + "."
    modules = [m for n, m in sorted(sys.modules.items())
               if n == package.__name__ or n.startswith(prefix)]
    undo: list[tuple[object, str, object]] = []
    missing: list[str] = []
    for layer, points in ENTRY_POINTS.items():
        home = sys.modules.get(prefix + layer)
        for name, counts in points:
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = None if owner is None else vars(owner).get(attr)
            if not callable(original):
                missing.append(f"{layer}.{name}")
                continue
            wrapper = tracer.wrap(layer, name, original, counts)
            if owner_name:
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapper)
    return undo, missing


def uninstall(undo: list) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for c in sorted(kids, key=lambda i: spans[i].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def layer_metrics(spans: list[Span],
                  sub_budget: Optional[Callable] = None) -> dict[str, float]:
    """Per-layer self times and work counts of one traced pass.

    sub_budget(K, head) is the capacity layer's complement budget L,
    used to compute convolution cells; the cells are computed from K, L
    and the weight counts, not counted inside the package.
    """
    own = self_times(spans)
    m: dict[str, float] = {f"{layer}.busy_s": 0.0
                           for layer in (ROOT_LAYER, *ENTRY_POINTS)}
    for key in ("packing.decide_s", "packing.scale_s",
                "capacities.concave_s", "capacities.convex_s"):
        m[key] = 0.0
    for key in ("fileio.bytes", "weights.calls", "weights.nodes",
                "packing.calls", "packing.moves", "packing.vector_entries",
                "capacities.calls", "capacities.maxplus_cells",
                "capacities.minplus_cells", "latticepaths.calls",
                "latticepaths.k_total", "blowups.approx_vertices",
                "svgout.bytes"):
        m[key] = 0
    certified = 0
    cells_known = True
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    for i, (span, t) in enumerate(zip(spans, own)):
        layer, c = span.layer, span.counts or {}
        m[f"{layer}.busy_s"] += t
        if layer == "fileio":
            m["fileio.bytes"] += c["bytes"]
        elif layer == "weights":
            m["weights.calls"] += 1
            m["weights.nodes"] += c["nodes"]
        elif layer == "packing":
            if span.name == "decide_packing":
                m["packing.decide_s"] += t
                m["packing.calls"] += 1
                m["packing.moves"] += c["moves"]
                m["packing.vector_entries"] += c["entries"]
            else:
                m["packing.scale_s"] += t
        elif layer == "capacities":
            m["capacities.calls"] += 1
            certified += c["certified"]
            tree = [k.counts for k in children.get(i, ())
                    if k.layer == "weights"]
            cells = _cells(span.name, c, tree, sub_budget)
            if cells is None:
                cells_known = False
            else:
                m["capacities.maxplus_cells"] += cells[0]
                m["capacities.minplus_cells"] += cells[1]
            if span.name == "concave_caps":
                m["capacities.concave_s"] += t
            else:
                m["capacities.convex_s"] += t
        elif layer == "latticepaths":
            m["latticepaths.calls"] += 1
            m["latticepaths.k_total"] += c["k"]
        elif layer == "blowups":
            # inner approximations grow their sides by outer ones
            if span.parent < 0 or spans[span.parent].layer != "blowups":
                m["blowups.approx_vertices"] += c["vertices"]
        elif layer == "svgout" and "bytes" in c:
            m["svgout.bytes"] += c["bytes"]
    if not cells_known:
        m["capacities.maxplus_cells"] = m["capacities.minplus_cells"] = -1
    calls = m["capacities.calls"]
    m["capacities.certified_frac"] = certified / calls if calls else 0.0
    return m


def _cells(name: str, counts: dict, weights: list,
           sub_budget: Optional[Callable]) -> Optional[tuple[int, int]]:
    """Max-plus and min-plus cells of one capacity call, as computed.

    concave_caps folds its n ball sequences by n - 1 max-plus
    convolutions at horizon K; convex_caps folds its m side balls at
    horizon 2L and then takes the complement at budgets L and 2L.  None
    marks a call whose weight count or budget is not available; the
    pass then reports -1 cells.
    """
    K = counts["K"]
    if len(weights) != 1:
        return None
    w = weights[0]
    if name == "concave_caps":
        return max(w["nodes"] - 1, 0) * (K + 1) * (K + 2) // 2, 0
    side = w["nodes"] - 1
    if side == 0:
        return 0, 0
    L = counts["L"]
    if L is None:
        if sub_budget is None:
            return None
        L = sub_budget(K, w["head"])
    maxplus = (side - 1) * (2 * L + 1) * (2 * L + 2) // 2
    return maxplus, (K + 1) * (L + 1) + (K + 1) * (2 * L + 1)
