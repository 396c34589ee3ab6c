"""Graphical conditions that are sufficient (not necessary) for IBN.

Checked in a fixed priority order: an isolated vertex arising during
source elimination, then a source cycle in the source-free form, then
pairwise-disjoint cycles.  rule=None decides nothing; the rank criterion
remains the decision procedure.

The first two rules run in O(V + E).  The isolated vertex comes out of
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
from .graph_core import Cycle, Graph, enumerate_simple_cycles
from .transforms import source_free_form

RULE_ISOLATED_VERTEX = "isolated-vertex"
RULE_SOURCE_CYCLE = "source-cycle"
RULE_DISJOINT_CYCLES = "disjoint-cycles"


@dataclass(frozen=True)
class SufficiencyResult:
    rule: Optional[str]
    isolated_vertex: Optional[str] = None
    elimination_stage: Optional[int] = None
    source_cycle: Optional[Cycle] = None
    cycles: Optional[tuple[Cycle, ...]] = None


def _strongly_connected_components(g: Graph) -> list[list[str]]:
    """Iterative Tarjan; components in a deterministic order."""
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = 0
    comps: list[list[str]] = []

    for root in g.vertices:
        if root in index_of:
            continue
        work = [(root, iter(g.out_edges(root)))]
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for e in it:
                w = e.dst
                if w not in index_of:
                    index_of[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(g.out_edges(w))))
                    advanced = True
                    break
                if w in on_stack and low[v] > index_of[w]:
                    low[v] = index_of[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[parent] > low[v]:
                    low[parent] = low[v]
            if low[v] == index_of[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.remove(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def cycles_pairwise_disjoint(g: Graph) -> bool:
    """True iff no vertex lies on two distinct cycles: every strongly
    connected component is a single loop-free vertex or exactly one cycle
    (edge count equals vertex count, all internal degrees 1)."""
    for comp in _strongly_connected_components(g):
        comp_set = set(comp)
        internal = [e for e in g.edges if e.src in comp_set and e.dst in comp_set]
        if len(comp) == 1:
            if len(internal) > 1:
                return False
            continue
        if len(internal) != len(comp):
            return False
        out_deg = {v: 0 for v in comp}
        in_deg = {v: 0 for v in comp}
        for e in internal:
            out_deg[e.src] += 1
            in_deg[e.dst] += 1
        if any(out_deg[v] != 1 or in_deg[v] != 1 for v in comp):
            return False
    return True


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
    if cycles_pairwise_disjoint(g):
        return SufficiencyResult(
            RULE_DISJOINT_CYCLES, cycles=enumerate_simple_cycles(g)
        )
    return SufficiencyResult(None)
