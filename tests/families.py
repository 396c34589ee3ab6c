"""Shared fixtures, graph families and independent brute-force oracles.

The oracles here deliberately use different algorithms than the package
(boolean-closure reachability, edge-tuple cycle scans, forward-only
rational elimination, rational reduced row-echelon solves, recursive
cycle search, one rebuild per source elimination, memoised recursive
crossing paths) so agreement actually cross-checks something.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from leavitt_ibn import Graph, build_graph, canonical_order, source_eliminate
from leavitt_ibn.errors import ComplementHasCycle

RANDOM_GRAPH_SEED = 0x1BA5E5
RANDOM_MATRIX_SEED = 0x5E1ECF


# ── named fixture graphs ─────────────────────────────────────────────


def ex26() -> Graph:
    # three vertices: double loop at v1, chain v1 -> v2 -> v3, loop at v2
    return build_graph(
        ["v1", "v2", "v3"],
        [
            ("l1", "v1", "v1"),
            ("l2", "v1", "v1"),
            ("e", "v1", "v2"),
            ("f", "v2", "v2"),
            ("g", "v2", "v3"),
        ],
    )


def e29() -> Graph:
    # a source feeding the double-loop vertex, then a chain to a sink
    return build_graph(
        ["v0", "v1", "v2", "v3"],
        [
            ("a", "v0", "v1"),
            ("l1", "v1", "v1"),
            ("l2", "v1", "v1"),
            ("b", "v1", "v2"),
            ("c", "v2", "v3"),
        ],
    )


def f29() -> Graph:
    # e29 with the source eliminated; same edge ids so equality holds
    return build_graph(
        ["v1", "v2", "v3"],
        [
            ("l1", "v1", "v1"),
            ("l2", "v1", "v1"),
            ("b", "v1", "v2"),
            ("c", "v2", "v3"),
        ],
    )


def triv() -> Graph:
    return build_graph(["v"], [])


def rose(n: int) -> Graph:
    return build_graph(["v"], [(f"l{i}", "v", "v") for i in range(1, n + 1)])


def a_path(n: int) -> Graph:
    """Line graph v1 -> v2 -> ... -> vn."""
    vs = [f"v{i}" for i in range(1, n + 1)]
    es = [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(1, n)]
    return build_graph(vs, es)


def a_cycle(n: int) -> Graph:
    """Directed cycle v0 -> v1 -> ... -> v(n-1) -> v0 with edges e0..e(n-1)."""
    vs = [f"v{i}" for i in range(n)]
    return build_graph(vs, [(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n)])


def ex33() -> Graph:
    # loop with one exit into a sink
    return build_graph(["v0", "v"], [("e0", "v0", "v0"), ("e", "v0", "v")])


def ex36() -> Graph:
    # ex33 plus an in-tree: v2 -> v1 -> v0 <- loop, v3 -> v1
    return build_graph(
        ["v0", "v", "v1", "v2", "v3"],
        [
            ("e0", "v0", "v0"),
            ("e", "v0", "v"),
            ("e1", "v1", "v0"),
            ("e2", "v2", "v1"),
            ("e3", "v3", "v1"),
        ],
    )


# ── graph families ───────────────────────────────────────────────────


def all_graphs(max_vertices: int = 3, max_parallel: int = 2):
    """Every graph with 1..max_vertices vertices and 0..max_parallel edges
    per ordered vertex pair, enumerated deterministically."""
    for h in range(1, max_vertices + 1):
        vs = [f"v{i}" for i in range(1, h + 1)]
        pairs = [(a, b) for a in vs for b in vs]
        for counts in itertools.product(range(max_parallel + 1), repeat=len(pairs)):
            edges = []
            for (a, b), k in zip(pairs, counts):
                edges.extend((f"{a}__{b}__{i}", a, b) for i in range(1, k + 1))
            yield build_graph(vs, edges)


def random_graph(rng: random.Random, max_vertices: int = 6, max_edges: int = 12) -> Graph:
    h = rng.randint(1, max_vertices)
    vs = [f"v{i}" for i in range(1, h + 1)]
    m = rng.randint(0, max_edges)
    edges = [
        (f"e{i}", rng.choice(vs), rng.choice(vs)) for i in range(1, m + 1)
    ]
    return build_graph(vs, edges)


def random_graphs(count: int, seed: int = RANDOM_GRAPH_SEED, **kw):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_graph(rng, **kw)


def chain_into_loop(n: int) -> Graph:
    """v1 -> v2 -> ... -> vn -> w with a loop at w; collapsing onto {w}
    gives n paths with n(n+1)/2 edge ids in all."""
    vs = [f"v{i}" for i in range(1, n + 1)] + ["w"]
    es = [(f"e{i}", vs[i - 1], vs[i]) for i in range(1, n + 1)]
    return build_graph(vs, es + [("l", "w", "w")])


def diamonds_into_loop(k: int) -> Graph:
    """a0 -> a1 -> ... -> ak -> w with a loop at w, where each step from ai
    to a(i+1) is a diamond through bi and ci; each diamond roughly doubles
    the paths that collapsing onto {w} must build."""
    vs = ["a0"]
    es = []
    for i in range(k):
        vs += [f"b{i}", f"c{i}", f"a{i + 1}"]
        es += [
            (f"ab{i}", f"a{i}", f"b{i}"),
            (f"ac{i}", f"a{i}", f"c{i}"),
            (f"ba{i}", f"b{i}", f"a{i + 1}"),
            (f"ca{i}", f"c{i}", f"a{i + 1}"),
        ]
    return build_graph(vs + ["w"], es + [("aw", f"a{k}", "w"), ("l", "w", "w")])

def source_free_graph(rng: random.Random, h: int, extra: int) -> Graph:
    """h vertices, each with one in-edge from a random vertex, plus up to
    `extra` more random edges; no vertex is a source."""
    vs = [f"s{i}" for i in range(h)]
    rng.shuffle(vs)
    pairs = [(rng.choice(vs), v) for v in vs]
    pairs += [(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(0, extra))]
    rng.shuffle(pairs)
    return build_graph(vs, [(f"e{i}", a, b) for i, (a, b) in enumerate(pairs)])


def in_forest_graph(rng: random.Random, h: int) -> Graph:
    """A core of 1..4 vertices with 1..2 out-edges each inside the core,
    fed by a forest: every other vertex emits one edge to an earlier
    vertex.  Vertex names and edge order are shuffled."""
    vs = [f"t{i}" for i in range(h)]
    core = rng.randint(1, min(4, h))
    pairs = []
    for i, v in enumerate(vs):
        if i < core:
            pairs += [(v, vs[rng.randrange(core)]) for _ in range(rng.randint(1, 2))]
        else:
            pairs.append((v, vs[rng.randrange(i)]))
    rng.shuffle(pairs)
    order = vs[:]
    rng.shuffle(order)
    return build_graph(order, [(f"e{i}", a, b) for i, (a, b) in enumerate(pairs)])


def peel_parity_graphs():
    """The corpus on which the linear source-free form and source-cycle
    finder are compared with their rebuild and enumeration oracles: every
    graph with <= 3 vertices, 500 random graphs, and 150 source-free and
    150 in-forest graphs with h <= 40."""
    yield from all_graphs(max_vertices=3, max_parallel=2)
    yield from random_graphs(500, seed=RANDOM_GRAPH_SEED + 40, max_vertices=8, max_edges=12)
    rng = random.Random(RANDOM_GRAPH_SEED + 41)
    for _ in range(150):
        h = rng.randint(2, 40)
        yield source_free_graph(rng, h, h // 8)
        yield in_forest_graph(rng, rng.randint(2, 40))


def random_int_matrix(rng: random.Random, max_dim: int = 8, lo: int = -5, hi: int = 5):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def hereditary_subsets(g: Graph):
    """Every nonempty subset closed under the range of emitted edges, by
    brute subset enumeration."""
    vs = g.vertices
    for mask in range(1, 1 << len(vs)):
        h = frozenset(v for i, v in enumerate(vs) if mask >> i & 1)
        if all(e.dst in h for e in g.edges if e.src in h):
            yield h


def valid_hereditary_sets(g: Graph):
    """Nonempty hereditary subsets H whose complement is acyclic and all of
    whose outside vertices reach H; exactly the sets the collapse move is
    meant for.  Brute subset enumeration, so keep graphs small."""
    reach = brute_reachability(g)
    cycles = brute_cycles(g)
    edge_src = {e.id: e.src for e in g.edges}
    vs = g.vertices
    for h in hereditary_subsets(g):
        if any(all(edge_src[eid] not in h for eid in cyc) for cyc in cycles):
            continue
        if any(
            all(not reach[(u, w)] for w in h) for u in vs if u not in h
        ):
            continue
        yield h


# ── independent oracles ──────────────────────────────────────────────


def brute_reachability(g: Graph) -> dict[tuple[str, str], bool]:
    """Reflexive-transitive closure by saturation over a boolean matrix."""
    vs = g.vertices
    idx = {v: i for i, v in enumerate(vs)}
    n = len(vs)
    reach = [[i == j for j in range(n)] for i in range(n)]
    for e in g.edges:
        reach[idx[e.src]][idx[e.dst]] = True
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for k in range(n):
                if reach[i][k]:
                    row_i, row_k = reach[i], reach[k]
                    for j in range(n):
                        if row_k[j] and not row_i[j]:
                            row_i[j] = True
                            changed = True
    return {(v, w): reach[idx[v]][idx[w]] for v in vs for w in vs}


def brute_cycles(g: Graph) -> set[tuple[str, ...]]:
    """All closed non-revisiting edge sequences, found by scanning raw edge
    tuples and canonicalizing the rotation."""
    idx = g.index
    edges = list(g.edges)
    found: set[tuple[str, ...]] = set()
    for length in range(1, len(g.vertices) + 1):
        for combo in itertools.product(edges, repeat=length):
            if any(
                combo[i].dst != combo[(i + 1) % length].src for i in range(length)
            ):
                continue
            srcs = [e.src for e in combo]
            if len(set(srcs)) != length:
                continue
            k = min(range(length), key=lambda i: idx[srcs[i]])
            found.add(tuple(e.id for e in combo[k:] + combo[:k]))
    return found


def rational_elimination_rank(rows) -> int:
    """Forward-only Gaussian elimination over Fraction; independent of the
    package's fraction-free integer route."""
    a = [[Fraction(x) for x in row] for row in rows]
    if not a:
        return 0
    ncols = len(a[0])
    r = 0
    for c in range(ncols):
        if r == len(a):
            break
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        lead = a[r]
        for i in range(r + 1, len(a)):
            if a[i][c]:
                factor = a[i][c] / lead[c]
                a[i] = [x - factor * y for x, y in zip(a[i], lead)]
        r += 1
    return r


def rational_particular_solution(rows, rhs):
    """Reduced row-echelon form of [M | rhs] over Fraction, pivots chosen
    as first nonzero by column then row; the solution with every free
    variable 0, or None when inconsistent.  Independent of the package's
    fraction-free integer route."""
    ncols = len(rows[0]) if rows else 0
    a = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(rows, rhs)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        if r == len(a):
            break
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        lead = a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], lead)]
        pivots.append((r, c))
        r += 1
    if any(a[i][ncols] for i in range(r, len(a))):
        return None
    x = [Fraction(0)] * ncols
    for row, col in pivots:
        x[col] = a[row][ncols]
    return tuple(x)


def rebuilt_source_free_form(g: Graph):
    """(result, eliminated, isolated_seen, first_isolated) by rebuilding
    the graph after every source elimination and recomputing the
    canonical order and the isolated vertices each time."""
    current = g
    eliminated: list[str] = []
    first_isolated = None
    stage = 0
    while True:
        if first_isolated is None:
            iso = next(
                (
                    v
                    for v in current.vertices
                    if current.in_degree(v) == 0 and current.out_degree(v) == 0
                ),
                None,
            )
            if iso is not None:
                first_isolated = (iso, stage)
        order, _ = canonical_order(current)
        pick = next((v for v in order if current.in_degree(v) == 0), None)
        if pick is None or len(current.vertices) == 1:
            break
        current = source_eliminate(current, pick)
        eliminated.append(pick)
        stage += 1
    return current, tuple(eliminated), first_isolated is not None, first_isolated


def recursive_simple_cycles(g: Graph) -> list[tuple[str, ...]]:
    """Every simple cycle in the package's order: recursive search
    anchored at each vertex in turn over vertices of larger index."""
    cycles = []
    index = g.index
    for start in g.vertices:
        path: list[str] = []
        on_path = {start}

        def dfs(u):
            for e in g.out_edges(u):
                w = e.dst
                if w == start:
                    cycles.append(tuple(path) + (e.id,))
                elif index[w] > index[start] and w not in on_path:
                    on_path.add(w)
                    path.append(e.id)
                    dfs(w)
                    path.pop()
                    on_path.remove(w)

        dfs(start)
    return cycles


def enumerated_first_source_cycle(g: Graph):
    """The first cycle of recursive_simple_cycles whose vertices all have
    in-degree exactly 1, or None."""
    src = {e.id: e.src for e in g.edges}
    for cycle in recursive_simple_cycles(g):
        if all(g.in_degree(src[eid]) == 1 for eid in cycle):
            return cycle
    return None


def recursive_crossing_paths(g: Graph, hset: set[str]) -> list[tuple[str, ...]]:
    """The crossing paths of the collapse move by recursive colouring and a
    per-vertex cache of every complement path into the vertex; raises
    ComplementHasCycle with the package's message."""
    comp_in: dict[str, list] = {v: [] for v in g.vertices if v not in hset}
    for e in g.edges:
        if e.dst not in hset:
            comp_in[e.dst].append(e)
    color: dict[str, int] = {}

    def visit(u: str):
        color[u] = 1
        for e in comp_in[u]:
            w = e.src
            c = color.get(w, 0)
            if c == 1:
                raise ComplementHasCycle(
                    f"complement of the hereditary set contains a cycle through {w}"
                )
            if c == 0:
                visit(w)
        color[u] = 2

    for u in comp_in:
        if color.get(u, 0) == 0:
            visit(u)

    prefix_cache: dict[str, list[tuple[str, ...]]] = {}

    def prefixes(u: str) -> list[tuple[str, ...]]:
        got = prefix_cache.get(u)
        if got is None:
            got = [()]
            for e in comp_in[u]:
                got.extend(p + (e.id,) for p in prefixes(e.src))
            prefix_cache[u] = got
        return got

    paths: list[tuple[str, ...]] = []
    for e in g.edges:
        if e.src not in hset and e.dst in hset:
            paths.extend(p + (e.id,) for p in prefixes(e.src))
    return paths
