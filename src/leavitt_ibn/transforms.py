"""Graph moves that preserve or decide the IBN verdict.

Fresh names are deterministic functions of the operation and its inputs
(underscore schemes; vertex/edge tokens only allow letters, digits and
underscore).  A generated name colliding with an existing one raises
DuplicateVertex/DuplicateEdge rather than silently renaming.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import (
    BadCount,
    CollapseTooLarge,
    ComplementHasCycle,
    EmptyGraph,
    NotHereditary,
    UnknownEdge,
    UnknownVertex,
    WouldEmptyGraph,
    NotASource,
)
from .graph_core import (
    Graph,
    build_graph,
    canonical_order,
    get_edge,
    is_hereditary,
    regular_vertices,
)


def _check_count(n) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise BadCount(f"count must be a positive integer, got {n!r}")
    return n


def source_eliminate(g: Graph, v: str) -> Graph:
    """Delete a source vertex together with everything it emits."""
    if not g.has_vertex(v):
        raise UnknownVertex(v)
    if g.in_degree(v) > 0:
        raise NotASource(v)
    if len(g.vertices) == 1:
        raise WouldEmptyGraph(v)
    vertices = tuple(u for u in g.vertices if u != v)
    edges = tuple((e.id, e.src, e.dst) for e in g.edges if e.src != v)
    return build_graph(vertices, edges)


@dataclass(frozen=True)
class EliminationReport:
    result: Graph
    eliminated: tuple[str, ...]
    isolated_seen: bool
    # first isolated vertex observed and the stage (0 = input graph) where
    # it appeared; None when no intermediate graph had one
    first_isolated: Optional[tuple[str, int]]


def source_free_form(g: Graph) -> EliminationReport:
    """Eliminate sources until none remain, smallest canonical index first.
    A single leftover vertex is kept (never an empty graph).  By confluence
    the surviving vertex set does not depend on the elimination order.

    Kahn-style peel over in-degree counters, with one build_graph at the
    end.  Eliminating a source deletes only its own out-edges, so no
    survivor's out-degree changes and the survivors keep their relative
    canonical order: the next source is a heap pop by canonical index of
    the input.  A vertex becomes isolated exactly when a sink's in-degree
    reaches 0; the report keeps the first one (smallest vertex index) and
    the stage at which it appeared."""
    if not g.vertices:
        raise EmptyGraph("source-free form needs at least one vertex")
    order, _ = canonical_order(g)
    rank = {v: i for i, v in enumerate(order)}
    in_degree = {v: g.in_degree(v) for v in g.vertices}
    first_isolated: Optional[tuple[str, int]] = next(
        ((v, 0) for v in g.vertices if not in_degree[v] and not g.out_degree(v)),
        None,
    )
    heap = [rank[v] for v in order if not in_degree[v]]  # sorted, so a heap
    eliminated: list[str] = []
    while heap and len(eliminated) < len(order) - 1:  # never empty the graph
        v = order[heapq.heappop(heap)]
        eliminated.append(v)
        fresh_sinks = []
        for e in g.out_edges(v):
            w = e.dst
            in_degree[w] -= 1
            if not in_degree[w]:
                heapq.heappush(heap, rank[w])
                if not g.out_degree(w):
                    fresh_sinks.append(w)
        if first_isolated is None and fresh_sinks:
            first_isolated = (min(fresh_sinks, key=g.index.__getitem__), len(eliminated))
    gone = set(eliminated)
    result = g
    if gone:
        result = build_graph(
            tuple(v for v in g.vertices if v not in gone),
            tuple((e.id, e.src, e.dst) for e in g.edges if e.src not in gone),
        )
    return EliminationReport(
        result, tuple(eliminated), first_isolated is not None, first_isolated
    )


def cohn_cover(g: Graph) -> Graph:
    """Add a sink copy v__prime of every regular vertex v and duplicate
    every edge with regular range toward the copy.  The resulting algebra
    always has IBN, which makes this a stock rank-gap fixture."""
    regular = set(regular_vertices(g))
    vertices = list(g.vertices)
    vertices += [f"{v}__prime" for v in g.vertices if v in regular]
    edges = [(e.id, e.src, e.dst) for e in g.edges]
    edges += [
        (f"{e.id}__prime", e.src, f"{e.dst}__prime")
        for e in g.edges
        if e.dst in regular
    ]
    return build_graph(vertices, edges)


def attach_head(g: Graph, v0: str, n: int) -> Graph:
    """Attach the chain v0__hn -> ... -> v0__h1 -> v0 (n fresh vertices)."""
    if not g.has_vertex(v0):
        raise UnknownVertex(v0)
    n = _check_count(n)
    names = [f"{v0}__h{i}" for i in range(1, n + 1)]
    edges = [(e.id, e.src, e.dst) for e in g.edges]
    for i in range(1, n + 1):
        dst = v0 if i == 1 else names[i - 2]
        edges.append((f"{v0}__he{i}", names[i - 1], dst))
    return build_graph(tuple(g.vertices) + tuple(names), edges)


def attach_star(g: Graph, v0: str, n: int) -> Graph:
    """Attach n fresh sources, each with a single edge into v0."""
    if not g.has_vertex(v0):
        raise UnknownVertex(v0)
    n = _check_count(n)
    names = [f"{v0}__s{i}" for i in range(1, n + 1)]
    edges = [(e.id, e.src, e.dst) for e in g.edges]
    edges += [(f"{v0}__se{i}", names[i - 1], v0) for i in range(1, n + 1)]
    return build_graph(tuple(g.vertices) + tuple(names), edges)


def subdivide_edge(g: Graph, e0_id: str, n: int) -> Graph:
    """Replace edge e0 by a path through n fresh vertices:
    s(e0) -> e0__vn -> ... -> e0__v1 -> r(e0)."""
    e0 = get_edge(g, e0_id)
    if e0 is None:
        raise UnknownEdge(e0_id)
    n = _check_count(n)
    names = [f"{e0_id}__v{i}" for i in range(1, n + 1)]
    edges = [(e.id, e.src, e.dst) for e in g.edges if e.id != e0_id]
    edges.append((f"{e0_id}__e1", names[0], e0.dst))
    for i in range(2, n + 1):
        edges.append((f"{e0_id}__e{i}", names[i - 1], names[i - 2]))
    edges.append((f"{e0_id}__e{n + 1}", e0.src, names[n - 1]))
    return build_graph(tuple(g.vertices) + tuple(names), edges)


# Most edge ids, summed over all crossing paths, that hereditary_collapse
# builds; it bounds both the fresh sources and the length of their names.
# The path count can be exponential in the input (each diamond on a chain
# doubles it), so the paths are counted before any is built.  A 2000-vertex
# chain needs 2 001 000 ids; a chain of 16 diamonds needs about 8 million.
MAX_COLLAPSE_PATH_IDS = 4_000_000


def _crossing_paths(g: Graph, hset: set[str]) -> list[tuple[str, ...]]:
    """All edge paths that stay outside hset until a final crossing edge:
    for each crossing edge in edge order, the complement paths into its
    source in preorder (the empty path, then the paths through each
    in-edge in edge order).  Requires the outside part (edges with range
    outside hset) acyclic, so the list is finite, and refuses with
    CollapseTooLarge above MAX_COLLAPSE_PATH_IDS.  Both walks keep explicit
    stacks, so long chains never recurse."""
    comp_in: dict[str, list] = {v: [] for v in g.vertices if v not in hset}
    for e in g.edges:
        if e.dst not in hset:
            comp_in[e.dst].append(e)

    # depth-first colouring along in-edges finds a cycle in the complement;
    # its post-order counts the complement paths into each vertex (the
    # empty one included) and their total length in edges
    color: dict[str, int] = {}
    count: dict[str, int] = {}
    length: dict[str, int] = {}
    for root in comp_in:
        if root in color:
            continue
        color[root] = 1
        stack = [(root, iter(comp_in[root]))]
        while stack:
            u, it = stack[-1]
            for e in it:
                w = e.src
                c = color.get(w, 0)
                if c == 1:
                    raise ComplementHasCycle(
                        f"complement of the hereditary set contains a cycle through {w}"
                    )
                if c == 0:
                    color[w] = 1
                    stack.append((w, iter(comp_in[w])))
                    break
            else:
                stack.pop()
                color[u] = 2
                count[u] = 1 + sum(count[e.src] for e in comp_in[u])
                length[u] = sum(length[e.src] + count[e.src] for e in comp_in[u])

    crossing = [e for e in g.edges if e.src not in hset and e.dst in hset]
    total = sum(length[e.src] + count[e.src] for e in crossing)
    if total > MAX_COLLAPSE_PATH_IDS:
        raise CollapseTooLarge(
            f"collapse would build {sum(count[e.src] for e in crossing)} paths "
            f"with {total} edge ids, above the cap of {MAX_COLLAPSE_PATH_IDS}"
        )

    paths: list[tuple[str, ...]] = []
    for e in crossing:
        stack = [(e.src, (e.id,))]
        while stack:
            u, path = stack.pop()
            paths.append(path)
            stack.extend((f.src, (f.id,) + path) for f in reversed(comp_in[u]))
    return paths


def hereditary_collapse(g: Graph, vertex_set: Iterable[str]) -> Graph:
    """Restrict to a hereditary set H and replace every path arriving from
    outside by one fresh source with a single edge into the path's range.
    The fresh source is named by the path's edge ids joined with '_'.
    Refuses (CollapseTooLarge) when the paths would hold more than
    MAX_COLLAPSE_PATH_IDS edge ids in all."""
    hset = set(vertex_set)
    if not hset:
        raise WouldEmptyGraph("hereditary set must be nonempty")
    for v in hset:
        if not g.has_vertex(v):
            raise UnknownVertex(v)
    if not is_hereditary(g, hset):
        raise NotHereditary(f"set {sorted(hset)} is not closed under ranges")
    paths = _crossing_paths(g, hset)

    by_id = {e.id: e for e in g.edges}
    vertices = [v for v in g.vertices if v in hset]
    edges = [(e.id, e.src, e.dst) for e in g.edges if e.src in hset]
    for path in paths:
        name = "_".join(path)
        vertices.append(name)
        edges.append((f"{name}__in", name, by_id[path[-1]].dst))
    return build_graph(vertices, edges)


def source_free_equivalent(g: Graph) -> Optional[Graph]:
    """Source-free graph with the same IBN verdict, or None when an
    isolated vertex shows up during source elimination (in that case the
    verdict is already known: the algebra has IBN).

    Composite move: collapse onto the source-free form's vertex set, read
    each bundle of fresh sources into a common target as a star, trade the
    star for a head, and absorb the head by subdividing one in-edge of the
    target (smallest edge index; one exists because the base is
    source-free)."""
    report = source_free_form(g)
    if report.isolated_seen:
        return None
    if not report.eliminated:
        return g
    base = report.result
    hset = set(base.vertices)
    collapsed = hereditary_collapse(g, base.vertices)
    bundle: dict[str, int] = {}
    for e in collapsed.edges:
        if e.src not in hset:
            bundle[e.dst] = bundle.get(e.dst, 0) + 1
    current = base
    order, _ = canonical_order(base)
    for v0 in order:
        k = bundle.get(v0, 0)
        if not k:
            continue
        in_edges = base.in_edges(v0)
        assert in_edges  # base is source-free
        current = subdivide_edge(current, in_edges[0].id, k)
    return current
