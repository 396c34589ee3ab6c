"""Graph monoid rewriting: the brute-force side of the IBN question.

Elements are nonnegative integer combinations of vertices.  The one
rewrite rule replaces a vertex (coefficient permitting) by the sum of the
ranges of its outgoing edges; it only applies at regular vertices.  Two
elements are equal in the monoid iff their forward closures meet, so
equality search is a dual breadth-first closure with a state budget.  A
miss is inconclusive by construction and the API says so.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .errors import (
    EmptyGraph,
    InsufficientCoefficient,
    NotRegular,
    UnknownVertex,
)
from .graph_core import Graph, canonical_order

DEFAULT_MAX_STATES = 100_000
COEFF_SUM_CAP_FACTOR = 64  # default cap: 64 * vertex count


class MonoidVector:
    """Normalized element of the free abelian monoid on vertex names:
    nonnegative coefficients, zeros dropped, name-sorted for hashing."""

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, coeffs: Mapping[str, int] = ()):
        items = []
        for v, c in coeffs.items() if isinstance(coeffs, Mapping) else coeffs:
            c = int(c)
            if c < 0:
                raise ValueError(f"negative coefficient at {v}")
            if c:
                items.append((v, c))
        items.sort()
        self._coeffs = dict(items)
        self._hash = hash(tuple(items))

    def get(self, v: str) -> int:
        return self._coeffs.get(v, 0)

    def items(self):
        return self._coeffs.items()

    def to_dict(self) -> dict[str, int]:
        return dict(self._coeffs)

    def total(self) -> int:
        return sum(self._coeffs.values())

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other):
        if not isinstance(other, MonoidVector):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self._coeffs:
            return "MonoidVector(0)"
        body = " + ".join(
            v if c == 1 else f"{c}{v}" for v, c in self._coeffs.items()
        )
        return f"MonoidVector({body})"


def uniform_vector(g: Graph, multiplier: int) -> MonoidVector:
    """multiplier * (sum of all vertices)."""
    return MonoidVector({v: multiplier for v in g.vertices})


@dataclass(frozen=True)
class RewriteTrace:
    """Vertices at which the relation was applied, in order."""

    steps: tuple[str, ...] = ()

    def __len__(self):
        return len(self.steps)


def _check_support(g: Graph, x: MonoidVector) -> None:
    for v, _ in x.items():
        if not g.has_vertex(v):
            raise UnknownVertex(v)


def apply_relation(g: Graph, x: MonoidVector, v: str) -> MonoidVector:
    """One rewrite step at v: subtract 1 there, add 1 at the range of each
    edge leaving v."""
    if not g.has_vertex(v):
        raise UnknownVertex(v)
    out = g.out_edges(v)
    if not out:
        raise NotRegular(v)
    if x.get(v) < 1:
        raise InsufficientCoefficient(v)
    _check_support(g, x)
    coeffs = x.to_dict()
    coeffs[v] = coeffs.get(v, 0) - 1
    for e in out:
        coeffs[e.dst] = coeffs.get(e.dst, 0) + 1
    return MonoidVector(coeffs)


def replay_trace(g: Graph, start: MonoidVector, trace: RewriteTrace) -> MonoidVector:
    """Apply every step of the trace; raises if any step is illegal, exactly
    where folding apply_relation over the steps would."""
    if not trace.steps:
        return start
    pos = g.index
    # a vertex outside the graph stays in every state, so the first step
    # that passes its own checks fails on it
    stray = next((v for v, _ in start.items() if v not in pos), None)
    state = [start.get(v) for v in g.vertices]
    moves: dict[str, tuple[int, list[int]]] = {}
    for v in trace.steps:
        move = moves.get(v)
        if move is None:
            if v not in pos:
                raise UnknownVertex(v)
            out = g.out_edges(v)
            if not out:
                raise NotRegular(v)
            move = moves[v] = (pos[v], [pos[e.dst] for e in out])
        vi, dsts = move
        if state[vi] < 1:
            raise InsufficientCoefficient(v)
        if stray is not None:
            raise UnknownVertex(stray)
        state[vi] -= 1
        for j in dsts:
            state[j] += 1
    return _to_vector(g, state)


def _deltas(g: Graph) -> tuple[tuple[str, ...], list[tuple[int, ...]], list[int]]:
    """Per regular vertex (canonical order): the integer effect of one
    application, as a vector aligned with g.vertices, plus its index."""
    order, z = canonical_order(g)
    pos = g.index
    regular = order[:z]
    deltas = []
    idxs = []
    for v in regular:
        d = [0] * len(g.vertices)
        d[pos[v]] -= 1
        for e in g.out_edges(v):
            d[pos[e.dst]] += 1
        deltas.append(tuple(d))
        idxs.append(pos[v])
    return regular, deltas, idxs


def _to_state(g: Graph, x: MonoidVector) -> tuple[int, ...]:
    _check_support(g, x)
    return tuple(x.get(v) for v in g.vertices)


def _to_vector(g: Graph, state: Sequence[int]) -> MonoidVector:
    return MonoidVector({v: c for v, c in zip(g.vertices, state)})


def execute_counts(
    g: Graph, start: MonoidVector, counts: Mapping[str, int]
) -> Optional[tuple[MonoidVector, RewriteTrace]]:
    """Greedily apply the relation count(v) times at each regular vertex v:
    round-robin sweeps in canonical order, one application per eligible
    vertex per sweep.  None when a full sweep makes no progress."""
    regular, deltas, idxs = _deltas(g)
    regular_set = set(regular)
    remaining = {}
    for v, c in counts.items():
        if not g.has_vertex(v):
            raise UnknownVertex(v)
        if v not in regular_set:
            raise NotRegular(f"count given for non-regular vertex {v}")
        c = int(c)
        if c < 0:
            raise ValueError(f"negative count at {v}")
        if c:
            remaining[v] = c
    state = list(_to_state(g, start))
    # sparse effects of the counted vertices only
    moves = [
        (v, vi, [(i, d) for i, d in enumerate(delta) if d])
        for v, delta, vi in zip(regular, deltas, idxs)
        if v in remaining
    ]

    def sweeps():
        # steps go straight into the trace tuple, never held twice
        progressed = True
        while remaining and progressed:
            progressed = False
            for v, vi, delta in moves:
                if v in remaining and state[vi] >= 1:
                    for i, d in delta:
                        state[i] += d
                    yield v
                    progressed = True
                    remaining[v] -= 1
                    if not remaining[v]:
                        del remaining[v]

    steps = tuple(sweeps())
    if remaining:  # a full sweep made no progress
        return None
    return _to_vector(g, state), RewriteTrace(steps)


@dataclass(frozen=True)
class SearchBudget:
    max_states: int = DEFAULT_MAX_STATES  # per closure side
    max_coeff_sum: Optional[int] = None  # None: 64 * vertex count


@dataclass(frozen=True)
class Equal:
    trace_x: RewriteTrace
    trace_y: RewriteTrace
    common: MonoidVector


@dataclass(frozen=True)
class NotFoundWithinBudget:
    """Inconclusive: the closures did not meet within the budget.  Never a
    proof that the elements differ."""

    states_explored: int


def _trace_back(parents, state) -> tuple[str, ...]:
    steps = []
    cur = state
    while True:
        entry = parents[cur]
        if entry is None:
            break
        prev, v = entry
        steps.append(v)
        cur = prev
    steps.reverse()
    return tuple(steps)


def equal_in_monoid(
    g: Graph,
    x: MonoidVector,
    y: MonoidVector,
    budget: Optional[SearchBudget] = None,
):
    """Decide [x] == [y] by intersecting forward closures, expanded in
    lockstep one dequeue per side, successors in canonical vertex order.
    Returns Equal with both traces to the common element, or
    NotFoundWithinBudget."""
    if budget is None:
        budget = SearchBudget()
    max_sum = budget.max_coeff_sum
    if max_sum is None:
        max_sum = COEFF_SUM_CAP_FACTOR * max(1, len(g.vertices))
    regular, deltas, idxs = _deltas(g)
    growth = [sum(d) for d in deltas]  # change in coefficient sum, >= 0

    sx = _to_state(g, x)
    sy = _to_state(g, y)
    if sx == sy:
        return Equal(RewriteTrace(), RewriteTrace(), _to_vector(g, sx))

    # States are packed into single integers, one fixed-width field per
    # vertex, so a rewrite step is one integer addition and visited-set
    # lookups hash ints instead of tuples.  The width leaves headroom above
    # the coefficient-sum cap, and the pre-checked coefficient at the
    # rewritten vertex keeps fields from borrowing into each other.
    # Field width covers the cap and the (never pruned) start coordinates.
    largest = max(max_sum, max(sx), max(sy))
    width = max(largest.bit_length() + 1, 8)
    field = (1 << width) - 1
    shifts = [i * width for i in range(len(g.vertices))]

    def pack(coeffs: Sequence[int]) -> int:
        # arithmetic packing so delta entries of -1 stay correct
        return sum(c << sh for sh, c in zip(shifts, coeffs))

    def unpack(packed: int) -> tuple[int, ...]:
        return tuple(packed >> sh & field for sh in shifts)

    # (shift of the rewritten vertex, packed delta, growth, vertex name)
    moves = tuple(
        (shifts[vi], pack(delta), gr, v)
        for delta, vi, gr, v in zip(deltas, idxs, growth, regular)
    )
    max_states = budget.max_states

    px, py = pack(sx), pack(sy)
    parents = ({px: None}, {py: None})
    queues = (deque([(px, sum(sx))]), deque([(py, sum(sy))]))
    popped = [0, 0]
    explored = 0

    while True:
        active = False
        for me in (0, 1):
            queue = queues[me]
            if not queue or popped[me] >= max_states:
                continue
            active = True
            popped[me] += 1
            explored += 1
            state, total = queue.popleft()
            mine = parents[me]
            theirs = parents[1 - me]
            meet = None
            for sh, pdelta, gr, v in moves:
                if not state >> sh & field:
                    continue
                succ_total = total + gr
                if succ_total > max_sum:
                    continue
                succ = state + pdelta
                if succ in mine:
                    continue
                mine[succ] = (state, v)
                if succ in theirs:
                    meet = succ
                    break
                queue.append((succ, succ_total))
            if meet is not None:
                tx = _trace_back(parents[0], meet)
                ty = _trace_back(parents[1], meet)
                return Equal(
                    RewriteTrace(tx), RewriteTrace(ty), _to_vector(g, unpack(meet))
                )
        if not active:
            return NotFoundWithinBudget(explored)


@dataclass(frozen=True)
class RefuteResult:
    m: int
    n: int
    equality: Equal


def ibn_refute_search(
    g: Graph, max_mn: int = 4, budget: Optional[SearchBudget] = None
) -> Optional[RefuteResult]:
    """Scan pairs 1 <= n < m <= max_mn in lexicographic (n, m) order for
    [m * sum(V)] == [n * sum(V)]; such an equality refutes IBN.  None means
    nothing found within budget, which decides nothing."""
    if not g.vertices:
        raise EmptyGraph("refute search needs at least one vertex")
    for n in range(1, max_mn):
        yn = uniform_vector(g, n)
        for m in range(n + 1, max_mn + 1):
            res = equal_in_monoid(g, uniform_vector(g, m), yn, budget)
            if isinstance(res, Equal):
                return RefuteResult(m, n, res)
    return None
