"""Precubical sets as combinatorial flows and cell complexes.

The core objects are finitely presented precubical sets (graded cells with
face maps subject to the cubical relations).  On top of them the package
computes the state set and execution-path classes of the realized flow,
the induced state order, integer cubical homology, and the small globular
cell ledger, plus a canonical JSON document format with named generators
and a command-line driver.
"""

from .core import (
    CellId,
    CubeWord,
    PcsMap,
    PrecubicalSet,
    Violation,
    apply_cube_map,
    boundary_cube,
    cube_category,
    cube_words,
    disjoint_union,
    empty_map,
    find_isomorphism,
    isomorphic,
    pushout,
    skeleton,
    standard_cube,
    tensor,
    validate,
)
from .flow import (
    EdgePath,
    LoopReport,
    PathClass,
    StatePoset,
    corner,
    count_flow_morphisms,
    edge_path,
    enumerate_path_classes,
    map_path,
    path_equal,
    realize_states,
    staircase,
    state_order,
)
from .homology import (
    ChainComplex,
    HomologyResult,
    chain_complex,
    euler_characteristic,
    homology,
    smith_normal_form,
)
from .globular import (
    FlowAtom,
    GlobularDecomposition,
    decomposition_report,
    globular_decomposition,
)
from .document import (
    FormatError,
    circle,
    cylinder,
    generate,
    interval,
    parse,
    serialize,
    torus,
)

__version__ = "0.1.0"

__all__ = [
    "CellId", "CubeWord", "PcsMap", "PrecubicalSet", "Violation",
    "apply_cube_map", "boundary_cube", "cube_category", "cube_words",
    "disjoint_union", "empty_map", "find_isomorphism", "isomorphic", "pushout",
    "skeleton", "standard_cube", "tensor", "validate",
    "EdgePath", "LoopReport", "PathClass", "StatePoset",
    "corner", "count_flow_morphisms", "edge_path", "enumerate_path_classes",
    "map_path", "path_equal", "realize_states", "staircase", "state_order",
    "ChainComplex", "HomologyResult", "chain_complex", "euler_characteristic",
    "homology", "smith_normal_form",
    "FlowAtom", "GlobularDecomposition", "decomposition_report",
    "globular_decomposition",
    "FormatError", "circle", "cylinder", "generate", "interval",
    "parse", "serialize", "torus",
]
