"""Exact embedding, packing and capacity computations for toric domains.

Everything runs over the rationals: weight expansions of concave and
convex domains, the reduction of embedding questions to ball packings,
the Cremona reduction that decides them, capacity sequences with an
exhaustive lattice path oracle, homology classes with their area form,
sphere chains, and inner and outer polygonal approximations.

Importing the package imports none of its modules: each public name
below, and each home module named as an attribute, is imported on first
use (PEP 562), so a command line call loads only what its command runs.
"""

import sys

__version__ = "0.1.0"

# every public name, by the module it lives in
_NAMES = {
    "blowups": ("SphereChain", "inner_approximation", "outer_approximation",
                "sphere_chain_concave", "sphere_chain_convex"),
    "capacities": ("CapacitySeq", "ball_caps", "concave_caps", "convex_caps",
                   "convex_horizon"),
    "classes": ("HomologyClass", "area", "c1", "intersection"),
    "domains": ("ToricDomain", "contains"),
    "embeddings": ("CapacityReport", "EmbeddingProblem", "capacity_report",
                   "decide_embedding", "optimal_embedding_scale",
                   "reduce_to_packing"),
    "errors": ("DomainError", "GeometryError", "LimitError"),
    "fileio": ("canonical_json", "digest_bytes", "digest_file",
               "domain_from_json", "domain_to_json", "load_domain",
               "read_domain", "save_domain"),
    "geometry": ("Point", "rational"),
    "latticepaths": ("LatticePath", "count_concave", "count_convex",
                     "ell_concave", "ell_convex", "oracle_convex_caps_upto",
                     "split_path"),
    "packing": ("PackingInstance", "Verdict", "capacity_obstruction",
                "cremona_step", "decide_packing", "defect", "optimal_scale"),
    "svgout": ("decomposition_polygons", "render_approximation",
               "render_decomposition"),
    "weights": ("DEFAULT_MAX_NODES", "ConvexDecomposition", "Decomposition",
                "WeightExpansion", "build_short_concave", "concave_weights",
                "convex_weights", "inorder", "node_count", "tree_values"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None and name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib, which python -S does not load
    module = f"{__name__}.{home or name}"
    __import__(module)
    return getattr(sys.modules[module], name) if home else sys.modules[module]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
