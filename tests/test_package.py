import ast
import contextlib
import importlib.util
import io
import os
import subprocess
import sys
import types
from fractions import Fraction as F
from pathlib import Path

import pytest

import echtoric
# the package imports a module on first use; load every layer
# bench/spans.py traces, as the benchmark's warm-up pass does before it
# installs the tracer
import echtoric.blowups
import echtoric.capacities
import echtoric.cli
import echtoric.domains
import echtoric.embeddings
import echtoric.fileio
import echtoric.latticepaths
import echtoric.packing
import echtoric.svgout
import echtoric.weights
from echtoric import (DEFAULT_MAX_NODES, CapacityReport, CapacitySeq,
                      ConvexDecomposition, Decomposition, EmbeddingProblem,
                      HomologyClass, LatticePath, PackingInstance, Point,
                      SphereChain, ToricDomain, Verdict, WeightExpansion)
from echtoric.latticepaths import PathSplit

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "echtoric"
SPANS = ROOT / "bench" / "spans.py"
CI = ROOT / ".github" / "workflows" / "tests.yml"

# Every public name and why it is public.  "cli": cli.py imports it, at
# its top or in the handler that uses it.  "bench entry point":
# bench/spans.py wraps it.  "ci": a CI step calls it.  "reference": an
# independent check the tests hold a kernel against.  "roadmap item N":
# kept for that ROADMAP item.  "library": a type, error or reader of what
# the entry points return, or the README library example.  A name takes
# the first role that fits, in that order.
ROLES = {
    **dict.fromkeys((
        "DEFAULT_MAX_NODES", "DomainError", "EmbeddingProblem", "LimitError",
        "PackingInstance", "ToricDomain", "canonical_json",
        "capacity_report", "concave_caps", "concave_weights", "contains",
        "convex_caps", "convex_weights", "decide_packing",
        "inner_approximation", "oracle_convex_caps_upto",
        "outer_approximation", "rational", "read_domain",
        "reduce_to_packing", "render_approximation",
        "render_decomposition"), "cli"),
    **dict.fromkeys((
        "decomposition_polygons", "digest_file", "load_domain",
        "optimal_embedding_scale", "optimal_scale"), "bench entry point"),
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
        "Point", "SphereChain", "Verdict", "WeightExpansion", "ball_caps",
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
    # every package name cli.py imports, at its top or in a handler
    cli = {name for level, module, names in _imports(SRC / "cli.py")
           if level for name in names if name in echtoric.__all__
           and getattr(getattr(echtoric, module), name)
           is getattr(echtoric, name)}
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


def test_names_resolve_in_their_home_modules():
    namespace = {}
    exec("from echtoric import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == echtoric.__all__
    assert set(echtoric.__all__) <= set(dir(echtoric))
    for name, home in echtoric._HOME.items():
        module = getattr(echtoric, home)
        assert getattr(echtoric, name) is vars(module)[name], name
        # the module that defines it, not one that imports it
        assert getattr(namespace[name], "__module__",
                       module.__name__) == module.__name__, name
    for name in ("no_such_name", *GONE):
        assert name not in dir(echtoric)
        with pytest.raises(AttributeError, match="^module 'echtoric' has no "
                                                 f"attribute '{name}'$"):
            getattr(echtoric, name)


def test_package_import_loads_no_module():
    # a home module named as an attribute is imported on first use too
    code = ("import sys, echtoric\n"
            "assert [m for m in sys.modules if 'echtoric' in m] == "
            "['echtoric']\n"
            "paths = echtoric.latticepaths\n"
            "assert paths is sys.modules['echtoric.latticepaths']\n"
            "assert echtoric.LatticePath is paths.LatticePath")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": str(SRC.parent)})


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


def _records():
    """(class, its fields as keyword arguments of __init__, fields set
    by __init__ itself, repr) for each frozen value class."""
    ball = ToricDomain.ball(2)
    disk = ToricDomain.ball(3, "convex")
    seq = CapacitySeq(1, (0, 1))
    step = LatticePath("concave", ((0, 0),))
    return [
        (Point, {"x": 0, "y": "1/2"}, (),
         "Point(x=Fraction(0, 1), y=Fraction(1, 2))"),
        (ToricDomain, {"kind": "concave", "D": 2, "ints": ((0, 4), (4, 0))},
         (), "ToricDomain(kind='concave', D=1, ints=((0, 2), (2, 0)))"),
        (HomologyClass, {"L": 1, "E": (1, 0), "Ehat": (2,)}, (),
         "HomologyClass(L=1, E=(1, 0), Ehat=(2,))"),
        (WeightExpansion, {"D": 2, "top": None, "sizes": (2, 1)}, (),
         "WeightExpansion(D=2, top=None, sizes=(2, 1))"),
        (PackingInstance, {"D": 1, "top": 3, "sizes": (1, 1)}, (),
         "PackingInstance(D=1, top=3, sizes=(1, 1))"),
        (Verdict, {"feasible": True, "failures": (), "D": 1,
                   "rows": ((3, 1, 1, 0),)}, (),
         "Verdict(feasible=True, failures=(), D=1, rows=((3, 1, 1, 0),))"),
        (Decomposition, {"D": 1, "rows": [[2, (1, 0, 0, 1, 0, 0), None,
                                           None]], "domain": None}, (),
         "Decomposition(D=1, rows=[[2, (1, 0, 0, 1, 0, 0), None, None]], "
         "domain=None)"),
        (ConvexDecomposition, {"top": 3, "domain": disk, "left": None,
                               "right": None}, (),
         f"ConvexDecomposition(top=3, domain={disk!r}, left=None, "
         "right=None)"),
        (CapacitySeq, {"D": 1, "ints": (0, 1)}, (),
         "CapacitySeq(D=1, ints=(0, 1))"),
        (EmbeddingProblem, {"source": ball, "target": disk, "max_nodes": 5},
         ("source_weights", "target_weights"),
         f"EmbeddingProblem(source={ball!r}, target={disk!r}, max_nodes=5, "
         "source_weights=WeightExpansion(D=1, top=None, sizes=(2,)), "
         "target_weights=WeightExpansion(D=1, top=3, sizes=()))"),
        (CapacityReport, {"source": seq, "target": seq, "oks": (True, True)},
         (), f"CapacityReport(source={seq!r}, target={seq!r}, "
             "oks=(True, True))"),
        (LatticePath, {"kind": "convex", "ints": ((0, 1), (1, 0))}, (),
         "LatticePath(kind='convex', ints=((0, 1), (1, 0)))"),
        (PathSplit, {"level": 0, "head": step, "left": step, "right": step},
         (), f"PathSplit(level=0, head={step!r}, left={step!r}, "
             f"right={step!r})"),
        (SphereChain, {"classes": (HomologyClass(0, (1,)),),
                       "weights": (1,), "head": 2, "line_index": 0}, (),
         "SphereChain(classes=(HomologyClass(L=0, E=(1,), Ehat=()),), "
         "weights=(1,), head=2, line_index=0)"),
    ]


@pytest.mark.parametrize("cls, kwargs, derived, text", _records(),
                         ids=lambda v: v.__name__ if isinstance(v, type)
                         else "")
def test_value_classes_behave_as_frozen_dataclasses(cls, kwargs, derived,
                                                    text):
    by_name = cls(**kwargs)
    value = cls(*kwargs.values())
    assert repr(value) == repr(by_name) == text
    assert value == by_name and not value != by_name
    fields = tuple(getattr(value, name) for name in (*kwargs, *derived))
    try:
        assert hash(value) == hash(by_name) == hash(fields)
    except TypeError:  # a field is a list, as dataclass hashes refuse too
        with pytest.raises(TypeError):
            hash(fields)
    # equal only within one class
    assert value.__eq__(fields) is NotImplemented and value != fields
    for name in (*kwargs, *derived, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in (*kwargs, *derived):
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) == getattr(by_name, name)


def test_value_class_defaults_subclasses_and_views():
    assert HomologyClass(1) == HomologyClass(1, (), ())
    assert SphereChain((), ()) == SphereChain((), (), None, None)
    ball, disk = ToricDomain.ball(2), ToricDomain.ball(3, "convex")
    assert EmbeddingProblem(ball, disk).max_nodes == DEFAULT_MAX_NODES
    expansion = WeightExpansion(1, 3, (1, 1))
    packing = PackingInstance(1, 3, (1, 1))
    assert expansion != packing and packing != expansion
    # cached_property views are computed once and kept
    seq = CapacitySeq(2, (0, 2, 5))
    assert seq.values is seq.values and seq[2] == F(5, 2)
    assert ball.boundary is ball.boundary == (Point(0, 2), Point(2, 0))
    assert packing.head == 3 and packing.weights == (1, 1)
