"""Tests of the benchmark's percentile rule, self times and tracing.

Run with `python3 -m pytest bench/tests` from the repository root.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from run import (CALIBRATION_S, MIN_TAIL, calibrated,  # noqa: E402
                 passes_until, percentile)
from spans import (Span, Tracer, install, layer_metrics,  # noqa: E402
                   self_times, uninstall)


# -- percentile rule ----------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # unsorted input
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90


def test_p90_needs_ten_samples_beyond_it():
    assert MIN_TAIL == 10
    assert percentile(range(1, 101), 90) == 90  # ranks 91..100 lie above
    with pytest.raises(ValueError):
        percentile(range(1, 100), 90)  # only 9 would lie above
    with pytest.raises(ValueError):
        percentile(range(1, 1000), 99)
    assert percentile(range(1, 1001), 99) == 990


# -- calibration and run length ---------------------------------------------

def test_calibrated_time_scales_by_the_mean_loop_time():
    # measured while the loop took twice CALIBRATION_S: half the wall time
    assert calibrated(0.010, 2 * CALIBRATION_S, 2 * CALIBRATION_S) == \
        pytest.approx(0.005)
    assert calibrated(0.010, CALIBRATION_S, 3 * CALIBRATION_S) == \
        pytest.approx(0.005)
    assert calibrated(0.010, CALIBRATION_S, CALIBRATION_S) == \
        pytest.approx(0.010)


def test_passes_stop_before_one_would_overrun(monkeypatch):
    # back-to-back passes of one second each: starts 0, 1, 2, ...
    ticks = iter([t for n in range(50) for t in (n, n + 1)])
    monkeypatch.setattr(run, "time",
                        SimpleNamespace(perf_counter=lambda: next(ticks)))
    # the tenth pass ends at the deadline, an eleventh would pass it
    assert passes_until(10, lambda: "p", 1) == ["p"] * 10
    # a run too short for its least count still makes that many
    assert passes_until(12, lambda: "p", 3) == ["p"] * 3


# -- self time ---------------------------------------------------------------

def span(layer, parent, start, end, name="f", counts=None):
    s = Span(layer, name, parent, 0, start, end)
    s.counts = counts
    return s


def test_self_time_subtracts_nested_children():
    spans = [span("cli", -1, 0.0, 10.0),
             span("weights", 0, 1.0, 4.0),
             span("domains", 1, 2.0, 3.0),
             span("svgout", 0, 5.0, 9.0)]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [span("cli", -1, 0.0, 10.0),
             span("a", 0, 1.0, 5.0),
             span("b", 0, 3.0, 7.0),    # overlaps a on [3, 5]
             span("c", 0, 9.0, 12.0)]   # runs past its parent
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_split_and_cells():
    spans = [
        span("cli", -1, 0.0, 10.0),
        span("packing", 0, 0.0, 4.0, "optimal_scale"),
        span("packing", 1, 1.0, 2.0, "decide_packing",
             {"moves": 3, "entries": 7}),
        span("capacities", 0, 4.0, 6.0, "concave_caps",
             {"K": 4, "certified": True}),
        span("weights", 3, 4.0, 5.0, "concave_weights",
             {"nodes": 3, "head": None}),
        span("capacities", 0, 6.0, 8.0, "convex_caps",
             {"K": 2, "L": None, "certified": False}),
        span("weights", 5, 6.0, 7.0, "convex_weights",
             {"nodes": 3, "head": Fraction(2)}),
        span("blowups", 0, 8.0, 9.0, "inner_approximation",
             {"vertices": 5}),
        span("blowups", 7, 8.0, 8.5, "outer_approximation",
             {"vertices": 4}),
    ]
    m = layer_metrics(spans, sub_budget=lambda K, head: 3)
    assert m["cli.busy_s"] == pytest.approx(1.0)
    assert m["packing.busy_s"] == pytest.approx(4.0)
    assert m["packing.decide_s"] == pytest.approx(1.0)
    assert m["packing.scale_s"] == pytest.approx(3.0)
    assert (m["packing.calls"], m["packing.moves"],
            m["packing.vector_entries"]) == (1, 3, 7)
    assert m["capacities.concave_s"] == pytest.approx(1.0)
    assert m["capacities.convex_s"] == pytest.approx(1.0)
    assert m["capacities.certified_frac"] == 0.5
    # concave: 2 convolutions of (K+1)(K+2)/2 = 15 cells; convex: 2 side
    # balls, one convolution at horizon 2L = 6 (28 cells), complement
    # (K+1)(L+1) + (K+1)(2L+1) = 12 + 21
    assert m["capacities.maxplus_cells"] == 30 + 28
    assert m["capacities.minplus_cells"] == 33
    assert (m["weights.calls"], m["weights.nodes"]) == (2, 6)
    assert m["blowups.approx_vertices"] == 5  # not the nested outer one


def test_unknown_budget_marks_cells_as_unknown():
    spans = [span("capacities", -1, 0.0, 1.0, "convex_caps",
                  {"K": 2, "L": None, "certified": True}),
             span("weights", 0, 0.0, 0.5, "convex_weights",
                  {"nodes": 3, "head": Fraction(2)})]
    m = layer_metrics(spans, sub_budget=None)
    assert m["capacities.maxplus_cells"] == m["capacities.minplus_cells"] == -1


# -- tracing the real package ------------------------------------------------

def test_traced_cli_call_records_layers_and_restores(tmp_path, monkeypatch):
    import echtoric
    import echtoric.capacities
    import echtoric.cli
    from echtoric.domains import ToricDomain

    domain = tmp_path / "square.json"
    domain.write_text(json.dumps(
        {"type": "convex", "boundary": [["0", "1"], ["1", "1"], ["1", "0"]]}))
    monkeypatch.chdir(tmp_path)
    argv = ["caps", "square.json", "--k", "4"]
    plain = io.StringIO()
    with redirect_stdout(plain):
        assert echtoric.cli.main(argv) == 0

    originals = (echtoric.cli.convex_caps, echtoric.capacities.convex_weights,
                 ToricDomain.__post_init__)
    tracer = Tracer()
    undo, missing = install(tracer, echtoric)
    traced = io.StringIO()
    try:
        with redirect_stdout(traced):
            assert tracer.request(0, lambda: echtoric.cli.main(argv)) == 0
    finally:
        uninstall(undo)
    assert missing == []
    assert traced.getvalue() == plain.getvalue()
    assert (echtoric.cli.convex_caps, echtoric.capacities.convex_weights,
            ToricDomain.__post_init__) == originals

    layers = [(s.layer, spans_parent_layer(tracer.spans, s))
              for s in tracer.spans]
    assert layers[0] == ("cli", None)
    assert ("capacities", "cli") in layers
    assert ("weights", "capacities") in layers  # convex_caps -> weights
    assert ("domains", "fileio") in layers      # load_domain -> domain
    caps = next(s for s in tracer.spans if s.layer == "capacities")
    assert caps.counts == {"K": 4, "L": None, "certified": True}
    m = layer_metrics(tracer.spans, echtoric.capacities.default_sub_budget)
    assert m["capacities.calls"] == 1 and m["weights.nodes"] == 3
    assert sum(v for k, v in m.items() if k.endswith(".busy_s")) == \
        pytest.approx(tracer.spans[0].end - tracer.spans[0].start)


def spans_parent_layer(spans, s):
    return None if s.parent < 0 else spans[s.parent].layer
