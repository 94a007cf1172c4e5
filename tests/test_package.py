import ast
import contextlib
import importlib.util
import io
import sys
import types
from pathlib import Path

import echtoric
import echtoric.cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "echtoric"
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
    # the class forms criterion 8 and the kernel-class tests check
    # classes with, and the sphere chains whose areas the
    # approximation-strictness tests hold the approximations against
    **dict.fromkeys((
        "area", "c1", "intersection", "sphere_chain_concave",
        "sphere_chain_convex"), "reference"),
    # packing numbers: a source whose weights are given balls
    "build_short_concave": "roadmap item 11",
    **dict.fromkeys((
        "CapacityReport", "CapacitySeq", "ConvexDecomposition",
        "Decomposition", "GeometryError", "HomologyClass", "LatticePath",
        "Point", "SphereChain", "WeightExpansion", "ball_caps",
        "convex_horizon", "decide_embedding", "digest_bytes",
        "domain_from_json", "domain_to_json", "inorder", "node_count",
        "tree_values"), "library"),
}

# names this package no longer has, each with where it lived
GONE = {"oracle_convex_cap": "latticepaths", "cremona_reduce": "packing",
        "ReportRow": "embeddings",
        **dict.fromkeys(("SymplecticClass", "pairing", "symplectic_class",
                         "chain_classes_concave", "chain_classes_convex"),
                        "blowups")}
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


def _imports(path):
    """(level, module, names) of every import statement in the file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield 0, alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            yield (node.level, node.module or "",
                   tuple(alias.name for alias in node.names))


def _top_level_defs(path):
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_class_arithmetic_layering():
    # classes.py stands on the standard library alone, packing reads its
    # classes from there and not through the approximations module, and
    # blowups.py defines none of the class arithmetic
    imports = list(_imports(SRC / "classes.py"))
    assert imports
    for level, module, _ in imports:
        assert level == 0, module
        assert module.split(".")[0] in sys.stdlib_module_names, module
    reached = set()  # every module an import in packing.py can bind
    for level, module, names in _imports(SRC / "packing.py"):
        if level:
            module = ".".join(filter(None, ("echtoric", module)))
        reached.add(module)
        reached.update(f"{module}.{name}" for name in names)
    assert "echtoric.classes" in reached
    assert "echtoric.blowups" not in reached
    gone = {name for name, module in GONE.items() if module == "blowups"}
    assert not _top_level_defs(SRC / "blowups.py") & (
        _top_level_defs(SRC / "classes.py") | gone)
