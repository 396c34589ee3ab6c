"""Finite directed multigraphs with ordered vertices and identified edges.

Vertex order is observable (it fixes matrix layouts downstream), parallel
edges are distinguished by edge id, and every structure is immutable once
built.  Conventions: a vertex is *regular* iff it emits at least one edge;
reachability is reflexive; a cycle is a closed edge path that revisits no
vertex, reported once, rotated so its smallest-index vertex comes first.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    DanglingEndpoint,
    DuplicateEdge,
    DuplicateVertex,
    InvalidToken,
    NotACycle,
    UnknownVertex,
)

_TOKEN = re.compile(r"[A-Za-z0-9_]+\Z")


class Edge(NamedTuple):
    id: str
    src: str
    dst: str


class Graph:
    """Immutable multigraph. Construct through build_graph."""

    __slots__ = (
        "vertices",
        "edges",
        "index",
        "_out",
        "_in",
    )

    def __init__(self, vertices: tuple[str, ...], edges: tuple[Edge, ...], index: dict):
        self.vertices = vertices
        self.edges = edges
        self.index = index
        self._out = None
        self._in = None

    # adjacency maps are built lazily; many transformed graphs only ever
    # need the edge list and the vertex index
    def _adjacency(self):
        out = {v: [] for v in self.vertices}
        inc = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e.src].append(e)
            inc[e.dst].append(e)
        self._out = {v: tuple(es) for v, es in out.items()}
        self._in = {v: tuple(es) for v, es in inc.items()}

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        if self._out is None:
            self._adjacency()
        try:
            return self._out[v]
        except KeyError:
            raise UnknownVertex(v) from None

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        if self._in is None:
            self._adjacency()
        try:
            return self._in[v]
        except KeyError:
            raise UnknownVertex(v) from None

    def out_degree(self, v: str) -> int:
        return len(self.out_edges(v))

    def in_degree(self, v: str) -> int:
        return len(self.in_edges(v))

    def has_vertex(self, v: str) -> bool:
        return v in self.index

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def build_graph(vertices: Sequence[str], edges: Iterable[tuple[str, str, str]]) -> Graph:
    """Validate and freeze a graph from vertex names and (id, src, dst) triples."""
    index: dict[str, int] = {}
    for v in vertices:
        if not _TOKEN.match(v):
            raise InvalidToken(f"vertex name {v!r}")
        if v in index:
            raise DuplicateVertex(v)
        index[v] = len(index)
    edge_list = []
    seen_ids = set()
    for eid, src, dst in edges:
        if not _TOKEN.match(eid):
            raise InvalidToken(f"edge id {eid!r}")
        if eid in seen_ids:
            raise DuplicateEdge(eid)
        seen_ids.add(eid)
        if src not in index:
            raise DanglingEndpoint(f"edge {eid}: unknown source {src}")
        if dst not in index:
            raise DanglingEndpoint(f"edge {eid}: unknown range {dst}")
        edge_list.append(Edge(eid, src, dst))
    return Graph(tuple(index), tuple(edge_list), index)


def get_edge(g: Graph, edge_id: str) -> Optional[Edge]:
    for e in g.edges:
        if e.id == edge_id:
            return e
    return None


class VertexRole(NamedTuple):
    position: str  # sink | source | isolated | internal
    regular: bool


def vertex_roles(g: Graph) -> dict[str, VertexRole]:
    """Classify every vertex by degree: emits nothing -> sink, receives
    nothing -> source, both -> isolated, neither -> internal; regular
    means out-degree >= 1."""
    roles = {}
    for v in g.vertices:
        has_out = g.out_degree(v) > 0
        has_in = g.in_degree(v) > 0
        if has_out and has_in:
            position = "internal"
        elif has_out:
            position = "source"
        elif has_in:
            position = "sink"
        else:
            position = "isolated"
        roles[v] = VertexRole(position, has_out)
    return roles


def regular_vertices(g: Graph) -> tuple[str, ...]:
    out = set(e.src for e in g.edges)
    return tuple(v for v in g.vertices if v in out)


def reaches(g: Graph, v: str, w: str) -> bool:
    """Reflexive-transitive reachability: every vertex reaches itself."""
    if v not in g.index:
        raise UnknownVertex(v)
    if w not in g.index:
        raise UnknownVertex(w)
    if v == w:
        return True
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for e in g.out_edges(u):
            if e.dst == w:
                return True
            if e.dst not in seen:
                seen.add(e.dst)
                stack.append(e.dst)
    return False


def forward_closure(g: Graph, start: Iterable[str]) -> set[str]:
    seen = set()
    stack = []
    for v in start:
        if v not in g.index:
            raise UnknownVertex(v)
        if v not in seen:
            seen.add(v)
            stack.append(v)
    while stack:
        u = stack.pop()
        for e in g.out_edges(u):
            if e.dst not in seen:
                seen.add(e.dst)
                stack.append(e.dst)
    return seen


def is_hereditary(g: Graph, vertex_set: Iterable[str]) -> bool:
    """True iff the set is closed under the range of every emitted edge."""
    vs = set(vertex_set)
    for v in vs:
        if v not in g.index:
            raise UnknownVertex(v)
    for e in g.edges:
        if e.src in vs and e.dst not in vs:
            return False
    return True


Cycle = tuple[str, ...]  # edge ids, consecutive ranges matching sources


def enumerate_simple_cycles(g: Graph) -> tuple[Cycle, ...]:
    """All cycles (closed paths revisiting no vertex), each reported once,
    rotated to start at its smallest-index vertex.  Parallel edges give
    distinct cycles.  Depth-first search anchored at each start vertex in
    turn, visiting only vertices of index >= the anchor, so each cycle
    appears exactly once in canonical rotation.  The search keeps an
    explicit stack of out-edge iterators, so long paths never recurse, and
    skips an anchor that no in-edge from index >= its own can close."""
    cycles: list[Cycle] = []
    index = g.index
    for start in g.vertices:
        start_idx = index[start]
        if all(index[e.src] < start_idx for e in g.in_edges(start)):
            continue
        path_edges: list[str] = []
        path_vertices: list[str] = []
        on_path = {start}
        stack = [iter(g.out_edges(start))]
        while stack:
            for e in stack[-1]:
                w = e.dst
                if w == start:
                    cycles.append(tuple(path_edges) + (e.id,))
                elif index[w] > start_idx and w not in on_path:
                    on_path.add(w)
                    path_edges.append(e.id)
                    path_vertices.append(w)
                    stack.append(iter(g.out_edges(w)))
                    break
            else:
                stack.pop()
                if path_vertices:
                    on_path.remove(path_vertices.pop())
                    path_edges.pop()
    return tuple(cycles)


class CycleProperties(NamedTuple):
    has_exit: bool
    is_source_cycle: bool


def cycle_properties(g: Graph, cycle: Sequence[str]) -> CycleProperties:
    """has_exit: some cycle vertex emits an edge not on the cycle.
    is_source_cycle: every cycle vertex has total in-degree exactly 1."""
    by_id = {e.id: e for e in g.edges}
    edges = []
    for eid in cycle:
        if eid not in by_id:
            raise NotACycle(f"unknown edge {eid}")
        edges.append(by_id[eid])
    if not edges:
        raise NotACycle("empty edge sequence")
    n = len(edges)
    verts = []
    for i, e in enumerate(edges):
        if e.dst != edges[(i + 1) % n].src:
            raise NotACycle("consecutive edges do not compose")
        verts.append(e.src)
    if len(set(verts)) != n:
        raise NotACycle("cycle revisits a vertex")
    cycle_ids = set(cycle)
    has_exit = any(
        e.id not in cycle_ids for v in verts for e in g.out_edges(v)
    )
    is_source_cycle = all(g.in_degree(v) == 1 for v in verts)
    return CycleProperties(has_exit, is_source_cycle)


class CanonicalOrder(NamedTuple):
    order: tuple[str, ...]
    z: int  # number of regular vertices, placed first


def canonical_order(g: Graph) -> CanonicalOrder:
    """Regular vertices first, then the rest, both blocks preserving the
    graph's vertex order."""
    out = set(e.src for e in g.edges)
    regular = [v for v in g.vertices if v in out]
    rest = [v for v in g.vertices if v not in out]
    return CanonicalOrder(tuple(regular + rest), len(regular))
