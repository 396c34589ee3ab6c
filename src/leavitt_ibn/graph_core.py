"""Finite directed multigraphs with ordered vertices and identified edges.

Vertex order is observable (it fixes matrix layouts downstream), parallel
edges are distinguished by edge id, and every structure is immutable once
built.  Conventions: a vertex is *regular* iff it emits at least one edge;
a cycle is a closed edge path that revisits no vertex, reported once,
rotated so its smallest-index vertex comes first.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    DanglingEndpoint,
    DuplicateEdge,
    DuplicateVertex,
    InvalidToken,
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
        "_move_table",  # graph_monoid's rewrite table, filled on first use
    )

    def __init__(self, vertices: tuple[str, ...], edges: tuple[Edge, ...], index: dict):
        self.vertices = vertices
        self.edges = edges
        self.index = index
        self._out = None
        self._in = None
        self._move_table = None

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


def regular_vertices(g: Graph) -> tuple[str, ...]:
    out = set(e.src for e in g.edges)
    return tuple(v for v in g.vertices if v in out)


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
