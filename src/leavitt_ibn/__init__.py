"""Invariant Basis Number for Leavitt path algebras of finite graphs.

The rank criterion decides IBN exactly; failures come with replayable
monoid witnesses; the graph monoid search gives an independent (one-sided)
oracle; graph moves and sufficient-condition classifiers round out the
toolbox.  See docs/formats.md for the GTF text format and the JSON shapes.
"""

from . import errors
from .classifiers import (
    RULE_ISOLATED_VERTEX,
    RULE_SOURCE_CYCLE,
    SufficiencyResult,
    classify_sufficient,
)
from .exact_linalg import (
    CriterionSystem,
    IntMatrix,
    augmented_ranks,
    criterion_system,
    incidence_matrix,
    matrix_vector,
    rank,
    solve_particular,
)
from .graph_core import (
    CanonicalOrder,
    CycleProperties,
    Edge,
    Graph,
    VertexRole,
    build_graph,
    canonical_order,
    cycle_properties,
    enumerate_simple_cycles,
    is_hereditary,
    reaches,
    regular_vertices,
    vertex_roles,
)
from .graph_monoid import (
    Equal,
    MonoidVector,
    NotFoundWithinBudget,
    RefuteResult,
    RewriteTrace,
    SearchBudget,
    apply_relation,
    equal_in_monoid,
    execute_counts,
    ibn_refute_search,
    replay_trace,
    uniform_vector,
)
from .gtf import parse_gtf, serialize_graph
from .ibn_criterion import (
    IbnVerdict,
    Witness,
    construct_witness,
    decide_ibn,
    ibn_ranks,
    verify_witness,
)
from .transforms import (
    EliminationReport,
    attach_head,
    attach_star,
    cohn_cover,
    hereditary_collapse,
    source_eliminate,
    source_free_equivalent,
    source_free_form,
    subdivide_edge,
)

__all__ = [
    "errors",
    "Graph",
    "Edge",
    "build_graph",
    "vertex_roles",
    "VertexRole",
    "regular_vertices",
    "reaches",
    "is_hereditary",
    "enumerate_simple_cycles",
    "cycle_properties",
    "CycleProperties",
    "canonical_order",
    "CanonicalOrder",
    "IntMatrix",
    "incidence_matrix",
    "CriterionSystem",
    "criterion_system",
    "rank",
    "augmented_ranks",
    "solve_particular",
    "matrix_vector",
    "MonoidVector",
    "uniform_vector",
    "RewriteTrace",
    "apply_relation",
    "replay_trace",
    "execute_counts",
    "SearchBudget",
    "Equal",
    "NotFoundWithinBudget",
    "equal_in_monoid",
    "RefuteResult",
    "ibn_refute_search",
    "IbnVerdict",
    "Witness",
    "ibn_ranks",
    "decide_ibn",
    "construct_witness",
    "verify_witness",
    "EliminationReport",
    "source_eliminate",
    "source_free_form",
    "cohn_cover",
    "attach_head",
    "attach_star",
    "subdivide_edge",
    "hereditary_collapse",
    "source_free_equivalent",
    "SufficiencyResult",
    "classify_sufficient",
    "RULE_ISOLATED_VERTEX",
    "RULE_SOURCE_CYCLE",
    "parse_gtf",
    "serialize_graph",
]

__version__ = "0.1.0"
