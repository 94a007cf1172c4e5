import contextlib
import importlib.util
import io
import sys
import types
from pathlib import Path

import echtoric
import echtoric.cli

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
CI = ROOT / ".github" / "workflows" / "tests.yml"

# Every public name and why it is public.  "cli": echtoric.cli imports
# it.  "bench entry point": bench/spans.py wraps it.  "ci": a CI step
# calls it.  "reference": an independent check the tests hold a kernel
# against.  "roadmap item N": kept for that ROADMAP item.  "library": a
# type, error or reader of what the entry points return, or the README
# library example.  A name takes the first role that fits, in that order.
ROLES = {
    **dict.fromkeys((
        "DEFAULT_MAX_NODES", "DomainError", "EmbeddingProblem", "LimitError",
        "PackingInstance", "ToricDomain", "Verdict", "canonical_json",
        "capacity_report", "concave_caps", "concave_weights", "contains",
        "convex_caps", "convex_weights", "decide_packing",
        "inner_approximation", "optimal_scale", "oracle_convex_caps_upto",
        "outer_approximation", "rational", "read_domain",
        "reduce_to_packing", "render_approximation",
        "render_decomposition"), "cli"),
    **dict.fromkeys((
        "decomposition_polygons", "digest_file", "load_domain",
        "optimal_embedding_scale"), "bench entry point"),
    "save_domain": "ci",
    # the Fraction replay of a Cremona trace
    "cremona_step": "reference",
    "defect": "reference",
    # the appendix identities and the oracle's memo check
    "count_concave": "reference",
    "count_convex": "reference",
    "ell_concave": "reference",
    "ell_convex": "reference",
    "split_path": "reference",
    # criterion 9: the capacity test never contradicts a Cremona verdict
    "capacity_obstruction": "reference",
    # criterion 8, the approximation-strictness tests and the one home
    # for exceptional classes
    **dict.fromkeys((
        "HomologyClass", "SphereChain", "SymplecticClass", "c1",
        "chain_classes_concave", "chain_classes_convex", "intersection",
        "pairing", "sphere_chain_concave", "sphere_chain_convex",
        "symplectic_class"), "roadmap item 14"),
    # packing numbers: a source whose weights are given balls
    "build_short_concave": "roadmap item 11",
    **dict.fromkeys((
        "CapacityReport", "CapacitySeq", "ConvexDecomposition",
        "Decomposition", "GeometryError", "LatticePath", "Point",
        "WeightExpansion", "ball_caps", "convex_horizon", "decide_embedding",
        "digest_bytes", "domain_from_json", "domain_to_json", "inorder",
        "node_count", "tree_values"), "library"),
}

# names this package no longer has, each with where it lived
GONE = {"oracle_convex_cap": "latticepaths", "cremona_reduce": "packing",
        "ReportRow": "embeddings"}
GONE_ATTRS = {"PackingInstance": ("vector", "target", "balls"),
              "WeightExpansion": ("weight_squares",),
              "CapacityReport": ("rows",),
              "LatticePath": ("of", "convex", "concave", "vertices"),
              "ToricDomain": ("xmax", "ymax")}


def test_all_lists_no_submodule():
    assert echtoric.__all__ == sorted(ROLES)
    for name in echtoric.__all__:
        assert not isinstance(getattr(echtoric, name), types.ModuleType), name
    cli = {name for name in echtoric.__all__
           if vars(echtoric.cli).get(name) is getattr(echtoric, name)}
    assert cli == {name for name, role in ROLES.items() if role == "cli"}
    spans, ci = SPANS.read_text(), CI.read_text()
    for name, role in ROLES.items():
        if role == "bench entry point":
            assert f'("{name}",' in spans, name
        elif role == "ci":
            assert name in ci, name
    for name, module in GONE.items():
        assert not hasattr(echtoric, name)
        assert not hasattr(getattr(echtoric, module), name), name
    for cls, attrs in GONE_ATTRS.items():
        for attr in attrs:
            assert not hasattr(getattr(echtoric, cls), attr), (cls, attr)


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


def test_readme_library_example():
    # each print's output is the # comment on its line, or on the line
    # after it up to a colon
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library example", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    lines = code.splitlines()
    expected = []
    for i, line in enumerate(lines):
        if line.startswith("print("):
            comment = line if "#" in line else lines[i + 1]
            expected.append(comment.split("#", 1)[1].strip().split(": ")[0])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected == [
        "True", "True", "(Fraction(1, 1), Fraction(129, 128))"]
