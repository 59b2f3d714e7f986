"""Structural invariants of directed multigraphs and their graph algebras.

The package computes Conditions (L) and (K), the admissible-pair lattice of
gauge-invariant ideals, maximal tails, breaking vertices, the prime/primitive
pair poset and classification verdicts (simplicity, pure infiniteness), and
models partial dynamical systems of free groups or the integers on finite T0
spaces.
"""

from types import ModuleType as _ModuleType

from .graphs import (
    DEFAULT_LIMIT,
    Edge,
    Graph,
    GraphFormatError,
    LimitExceededError,
    OMEGA,
    Omega,
    Path,
    detect_format,
    first_return_count,
    graph_to_edgelist,
    graph_to_json,
    parse_graph,
    scc_decomposition,
    serialize_graph,
)
from .conditions import (
    ConditionK,
    ConditionL,
    CycleWitness,
    condition_K,
    condition_L,
    cycle_entrances,
    is_hereditary,
    is_saturated,
    saturated_hereditary_sets,
    saturation,
)
from .ideals import (
    AdmissiblePair,
    IdealLattice,
    admissible_pairs,
    breaking_vertices_of,
    lattice_to_dot,
    lattice_to_json,
    pair_leq,
    quotient_graph,
)
from .spectrum import (
    PrimPoint,
    PrimSpace,
    breaking_vertices,
    maximal_tails,
    prim_space,
    prim_space_to_dot,
    prim_space_to_json,
    prime_points,
)
from .classify import (
    ClassificationReport,
    PurelyInfiniteVerdict,
    SimpleVerdict,
    classify,
    is_purely_infinite,
    is_simple,
    report_to_json,
    report_to_text,
)
from .actions import (
    ActionFormatError,
    Decomposition,
    FinitePartialAction,
    FiniteT0Space,
    PartialHomeo,
    QuasiOrbitSpace,
    check_infinite_witness,
    check_paradoxical_witness,
    decide_G_infinite,
    parse_action,
    parse_decomposition,
)

# the names imported above, not the submodules
__all__ = sorted(k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _ModuleType))
