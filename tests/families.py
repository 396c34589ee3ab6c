"""Shared fixtures, graph families and independent brute-force oracles.

The oracles here deliberately use different algorithms than the package
(boolean-closure reachability, edge-tuple cycle scans, a Kahn peel for
acyclic complements, ranks without witnesses for verdicts, forward-only
rational elimination, rational reduced row-echelon solves, recursive
cycle search, one rebuild per source elimination, memoised recursive
crossing paths, one rebuild per subdivided edge, one fresh lockstep
closure pair per monoid equality, greedy schedules folded from single
apply_relation steps) so agreement actually cross-checks something.
"""

from __future__ import annotations

import itertools
import operator
import random
from collections import deque
from fractions import Fraction

from leavitt_ibn import (
    Equal,
    Graph,
    MonoidVector,
    NotFoundWithinBudget,
    RefuteResult,
    RewriteTrace,
    SearchBudget,
    apply_relation,
    build_graph,
    canonical_order,
    hereditary_collapse,
    ibn_ranks,
    source_eliminate,
    source_free_form,
    subdivide_edge,
    uniform_vector,
)
from leavitt_ibn.errors import ComplementHasCycle, EmptyGraph, UnknownVertex
from leavitt_ibn.graph_monoid import COEFF_SUM_CAP_FACTOR

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
    vs = g.vertices
    for h in hereditary_subsets(g):
        if not _peels_away(g, h):
            continue
        if any(
            all(not reach[(u, w)] for w in h) for u in vs if u not in h
        ):
            continue
        yield h


def _peels_away(g: Graph, h) -> bool:
    """True iff no cycle lies outside h: a Kahn peel of the vertices
    outside h, over the edges between them, removes every one of them."""
    indeg = {v: 0 for v in g.vertices if v not in h}
    inside = [e for e in g.edges if e.src in indeg and e.dst in indeg]
    succ: dict[str, list[str]] = {v: [] for v in indeg}
    for e in inside:
        indeg[e.dst] += 1
        succ[e.src].append(e.dst)
    ready = [v for v, d in indeg.items() if not d]
    peeled = 0
    while ready:
        u = ready.pop()
        peeled += 1
        for w in succ[u]:
            indeg[w] -= 1
            if not indeg[w]:
                ready.append(w)
    return peeled == len(indeg)


# ── independent oracles ──────────────────────────────────────────────


def has_ibn(g: Graph) -> bool:
    """The verdict alone, from the ranks: no witness is built."""
    rank_m, rank_aug = ibn_ranks(g)
    return rank_m < rank_aug


def _cycle_vertices(g: Graph, cycle) -> list[str]:
    """The vertices of a cycle given by edge ids, in order; asserts that
    the edges exist, compose, close up and revisit no vertex."""
    by_id = {e.id: e for e in g.edges}
    edges = [by_id[eid] for eid in cycle]
    assert edges
    assert all(e.dst == edges[(i + 1) % len(edges)].src for i, e in enumerate(edges))
    verts = [e.src for e in edges]
    assert len(set(verts)) == len(verts)
    return verts


def cycle_has_exit(g: Graph, cycle) -> bool:
    """Some vertex of the cycle emits an edge that is not on the cycle."""
    ids = set(cycle)
    return any(e.id not in ids for v in _cycle_vertices(g, cycle) for e in g.out_edges(v))


def is_source_cycle(g: Graph, cycle) -> bool:
    """Every vertex of the cycle has in-degree exactly 1."""
    return all(g.in_degree(v) == 1 for v in _cycle_vertices(g, cycle))


def matrix_vector(m, x) -> tuple[Fraction, ...]:
    """M x over Fraction, one row at a time."""
    assert len(x) == m.cols
    return tuple(sum((e * xi for e, xi in zip(row, x)), Fraction(0)) for row in m.row_lists())


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


def rebuilt_source_free_equivalent(g: Graph):
    """source_free_equivalent by one subdivide_edge, and so one graph
    rebuild, per target of the fresh sources."""
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
        current = subdivide_edge(current, base.in_edges(v0)[0].id, k)
    return current


def lockstep_equal_in_monoid(g: Graph, x: MonoidVector, y: MonoidVector, budget=None):
    """[x] == [y] by two fresh forward closures expanded in lockstep, one
    dequeue per side per round, successors in canonical vertex order, with
    a (parent, vertex) pointer per state; stops at the first state one
    side finds that the other side already holds."""
    if budget is None:
        budget = SearchBudget()
    max_sum = budget.max_coeff_sum
    if max_sum is None:
        max_sum = COEFF_SUM_CAP_FACTOR * max(1, len(g.vertices))
    order, z = canonical_order(g)
    pos = g.index
    moves = []
    for v in order[:z]:
        d = [0] * len(g.vertices)
        d[pos[v]] -= 1
        for e in g.out_edges(v):
            d[pos[e.dst]] += 1
        moves.append((pos[v], tuple(d), sum(d), v))

    def state(vec):
        for v, _ in vec.items():
            if v not in pos:
                raise UnknownVertex(v)
        return tuple(vec.get(v) for v in g.vertices)

    def vector(s):
        return MonoidVector(dict(zip(g.vertices, s)))

    sx, sy = state(x), state(y)
    if sx == sy:
        return Equal(RewriteTrace(), RewriteTrace(), vector(sx))
    parents = ({sx: None}, {sy: None})
    queues = (deque([(sx, sum(sx))]), deque([(sy, sum(sy))]))
    popped = [0, 0]

    def trace_back(mine, s):
        steps = []
        while mine[s] is not None:
            s, v = mine[s]
            steps.append(v)
        return RewriteTrace(tuple(reversed(steps)))

    while True:
        active = False
        for me in (0, 1):
            queue, mine, theirs = queues[me], parents[me], parents[1 - me]
            if not queue or popped[me] >= budget.max_states:
                continue
            active = True
            popped[me] += 1
            cur, total = queue.popleft()
            for vi, delta, growth, v in moves:
                if not cur[vi] or total + growth > max_sum:
                    continue
                succ = tuple(map(operator.add, cur, delta))
                if succ in mine:
                    continue
                mine[succ] = (cur, v)
                if succ in theirs:
                    return Equal(
                        trace_back(parents[0], succ),
                        trace_back(parents[1], succ),
                        vector(succ),
                    )
                queue.append((succ, total + growth))
        if not active:
            return NotFoundWithinBudget(sum(popped))


def lockstep_refute_search(g: Graph, max_mn: int = 4, budget=None):
    """ibn_refute_search by one fresh lockstep_equal_in_monoid per pair
    1 <= n < m <= max_mn, in lexicographic (n, m) order."""
    if not g.vertices:
        raise EmptyGraph("refute search needs at least one vertex")
    for n in range(1, max_mn):
        for m in range(n + 1, max_mn + 1):
            res = lockstep_equal_in_monoid(
                g, uniform_vector(g, m), uniform_vector(g, n), budget
            )
            if isinstance(res, Equal):
                return RefuteResult(m, n, res)
    return None


def swept_execute_counts(g: Graph, start: MonoidVector, counts):
    """execute_counts by folding apply_relation on MonoidVectors:
    round-robin sweeps over the regular vertices in canonical order, one
    step per vertex that has a count left and a unit to spend; None when
    a whole sweep makes no step."""
    order, z = canonical_order(g)
    remaining = {v: c for v, c in counts.items() if c}
    x, steps = start, []
    while remaining:
        progressed = False
        for v in order[:z]:
            if remaining.get(v) and x.get(v) >= 1:
                x = apply_relation(g, x, v)
                steps.append(v)
                remaining[v] -= 1
                if not remaining[v]:
                    del remaining[v]
                progressed = True
        if not progressed:
            return None
    return x, RewriteTrace(tuple(steps))
