"""Dihedral edge-to-edge tilings of the unit sphere.

Tools for enumerating, constructing, realizing and verifying tilings of the
unit sphere by congruent copies of one regular m-gon and one rhombus, meeting
edge to edge.  Submodules:

* ``trig``: edge-length identities, the closure equation, root finding and
  nonexistence certificates.
* ``combinatorics``: vertex types, anglewise vertex combinations, counting
  arguments and the classification driver.
* ``complexes``: half-edge face complexes, validation, census and canonical
  codes up to label-preserving isomorphism.
* ``generators``: explicit construction of the tiling families (prisms,
  earth-map chains, pentagonal-fusion variants, the football).
* ``realization``: numerical embedding on the sphere, geometric checks and
  ``verify_tiling``, the from-scratch verifier behind ``spheretile verify``.
* ``serialization``: JSON interchange, OBJ and SVG export.
"""

from .trig import (
    AngleSolution,
    NonexistenceEvidence,
    closure_residual,
    mgon_edge_cos,
    rhombus_edge_cos,
    solve_closure,
    certify_no_root,
)
from .complexes import TilingComplex, build_from_faces, canonical_code, isomorphic
from .combinatorics import classify, enumerate_degree3, counting_filter
from .generators import (
    dodecahedron_matchings,
    earth_map,
    football,
    prism,
    snub_fusion,
    triangular_fusion,
)
from .realization import (
    Embedding,
    earth_map_gamma,
    embed_earth_map,
    embed_generic,
    embed_prism,
    prism_params,
    sporadic_solution,
    verify_geometric,
    verify_tiling,
)
from .serialization import parse_tiling, serialize_tiling

__all__ = [
    "AngleSolution",
    "NonexistenceEvidence",
    "closure_residual",
    "mgon_edge_cos",
    "rhombus_edge_cos",
    "solve_closure",
    "certify_no_root",
    "TilingComplex",
    "build_from_faces",
    "canonical_code",
    "isomorphic",
    "classify",
    "enumerate_degree3",
    "counting_filter",
    "dodecahedron_matchings",
    "earth_map",
    "football",
    "prism",
    "snub_fusion",
    "triangular_fusion",
    "Embedding",
    "earth_map_gamma",
    "embed_earth_map",
    "embed_generic",
    "embed_prism",
    "prism_params",
    "sporadic_solution",
    "verify_geometric",
    "verify_tiling",
    "parse_tiling",
    "serialize_tiling",
]

__version__ = "0.1.0"
