import importlib.util
import sys
import types
from pathlib import Path

import echtoric

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_all_lists_no_submodule():
    assert echtoric.__all__ == sorted(set(echtoric.__all__))
    for name in echtoric.__all__:
        assert not isinstance(getattr(echtoric, name), types.ModuleType), name
    for name in ("blowups", "capacities", "weights", "latticepaths"):
        assert name not in echtoric.__all__
    assert {"convex_caps", "convex_horizon", "ToricDomain",
            "DomainError", "Decomposition", "concave_weights",
            "convex_weights"} <= set(echtoric.__all__)


def test_tracer_finds_every_entry_point(monkeypatch):
    # the benchmark's traced pass wraps entry points by name; one the
    # package renamed or dropped would only show as a missing layer
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read only
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    undo, missing = spans.install(spans.Tracer(), echtoric)
    try:
        assert missing == []
        assert undo
    finally:
        spans.uninstall(undo)
