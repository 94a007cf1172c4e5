"""Exact embedding, packing and capacity computations for toric domains.

Everything runs over the rationals: weight expansions of concave and
convex domains, the reduction of embedding questions to ball packings,
the Cremona reduction that decides them, capacity sequences with an
exhaustive lattice path oracle, sphere chains with their homology
classes, and inner and outer polygonal approximations.
"""

import types as _types

from .blowups import (HomologyClass, SphereChain, SymplecticClass, c1,
                      chain_classes_concave, chain_classes_convex,
                      inner_approximation, intersection, outer_approximation,
                      pairing, sphere_chain_concave, sphere_chain_convex,
                      symplectic_class)
from .capacities import (CapacitySeq, ball_caps, concave_caps, convex_caps,
                         convex_horizon)
from .domains import ToricDomain, contains
from .embeddings import (CapacityReport, EmbeddingProblem, ReportRow,
                         capacity_report, decide_embedding,
                         optimal_embedding_scale, reduce_to_packing)
from .errors import DomainError, GeometryError, LimitError
from .fileio import (canonical_json, digest_bytes, digest_file,
                     domain_from_json, domain_to_json, load_domain,
                     read_domain, save_domain)
from .geometry import Point, rational
from .latticepaths import (LatticePath, count_concave, count_convex,
                           ell_concave, ell_convex, oracle_convex_cap,
                           oracle_convex_caps_upto, split_path)
from .packing import (PackingInstance, Verdict, capacity_obstruction,
                      cremona_reduce, cremona_step, decide_packing, defect,
                      optimal_scale)
from .svgout import (decomposition_polygons, render_approximation,
                     render_decomposition)
from .weights import (DEFAULT_MAX_NODES, ConvexDecomposition, Decomposition,
                      WeightExpansion, build_short_concave, concave_weights,
                      convex_weights, inorder, node_count, tree_values)

__version__ = "0.1.0"

# importing a submodule's names binds the submodule too; leave those out
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_")
           and not isinstance(value, _types.ModuleType)]
