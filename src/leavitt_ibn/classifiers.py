"""Graphical conditions that are sufficient (not necessary) for IBN.

Checked in a fixed priority order: an isolated vertex arising during
source elimination, then a source cycle in the source-free form.
rule=None decides nothing; the rank criterion remains the decision
procedure.  Pairwise vertex-disjoint cycles, also sufficient, need no
rule of their own: without an isolated vertex the source-free form has
no source, so a top strongly connected component holds a cycle, and
with disjoint cycles that component is exactly one cycle of in-degree-1
vertices, a source cycle.

Both rules run in O(V + E).  The isolated vertex comes out of
the Kahn peel of source_free_form.  Every vertex of a source cycle has
in-degree 1, so the source cycles are the cycles of the map sending such
a vertex to the source of its one in-edge; a vertex lies on at most one
of them, and the one reported is the cycle through the smallest-index
vertex, listed from that vertex, as enumerate_simple_cycles would list it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import EmptyGraph
from .graph_core import Cycle, Graph
# Not called here; kept because the traced benchmark run
# (perfbench/tracing.py) wraps this module-level name.
from .graph_core import enumerate_simple_cycles  # noqa: F401
from .transforms import source_free_form

RULE_ISOLATED_VERTEX = "isolated-vertex"
RULE_SOURCE_CYCLE = "source-cycle"


@dataclass(frozen=True)
class SufficiencyResult:
    rule: Optional[str]
    isolated_vertex: Optional[str] = None
    elimination_stage: Optional[int] = None
    source_cycle: Optional[Cycle] = None


def first_source_cycle(g: Graph) -> Optional[Cycle]:
    """The source cycle (every vertex of in-degree exactly 1) through the
    smallest-index vertex, as edge ids starting at that vertex, or None.
    Follows the in-edge map from each vertex once: O(V + E)."""
    in_edge = {}
    for v in g.vertices:
        es = g.in_edges(v)
        if len(es) == 1:
            in_edge[v] = es[0]
    done: set[str] = set()
    on_cycle: set[str] = set()
    for start in g.vertices:
        walk: dict[str, int] = {}  # vertex -> position on this walk
        v = start
        while v in in_edge and v not in done and v not in walk:
            walk[v] = len(walk)
            v = in_edge[v].src
        if v in walk:  # the walk closed a cycle at v
            on_cycle.update(u for u, i in walk.items() if i >= walk[v])
        done.update(walk)
    anchor = next((v for v in g.vertices if v in on_cycle), None)
    if anchor is None:
        return None
    edges = []
    v = anchor
    while True:
        e = in_edge[v]
        edges.append(e.id)
        v = e.src
        if v == anchor:
            return tuple(reversed(edges))


def classify_sufficient(g: Graph) -> SufficiencyResult:
    """First sufficient condition that holds, by the fixed priority.  Every
    non-None rule implies the algebra has IBN; None decides nothing."""
    if not g.vertices:
        raise EmptyGraph("classification needs at least one vertex")
    report = source_free_form(g)
    if report.isolated_seen:
        v, stage = report.first_isolated
        return SufficiencyResult(
            RULE_ISOLATED_VERTEX, isolated_vertex=v, elimination_stage=stage
        )
    cycle = first_source_cycle(report.result)
    if cycle is not None:
        return SufficiencyResult(RULE_SOURCE_CYCLE, source_cycle=cycle)
    return SufficiencyResult(None)
