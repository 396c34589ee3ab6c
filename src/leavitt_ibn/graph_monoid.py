"""Graph monoid rewriting: the brute-force side of the IBN question.

Elements are nonnegative integer combinations of vertices.  The one
rewrite rule replaces a vertex (coefficient permitting) by the sum of the
ranges of its outgoing edges; it only applies at regular vertices.  Each
graph has one move table, built in O(V + E), that maps a regular vertex
to its index and the indices of its ranges; replay, greedy schedules and
the packed search all read it.

A step lowers only its own vertex, so steps at vertices that each hold
at least as many units as they have steps are legal in any order.
Greedy schedules and replay use this to handle witness-sized schedules
as counts, in closed form.

Two elements are equal in the monoid iff their forward closures meet, so
equality search is a dual breadth-first closure with a state budget.  A
miss is inconclusive by construction and the API says so.

The refutation scan over pairs (m, n) keeps one closure per start
k * sum(V), grown only as far as some pair needs, and shares it between
every pair with that start; so up to max_mn closures are alive at once.
A pair grows its two closures by steps of many rounds per call, not one
pop at a time, and checks the lockstep stop rule after each step.
Discovery order is fixed by breadth-first order alone, so each pair
still returns exactly what two fresh closures expanded in lockstep
would.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Mapping, Optional, Sequence

from .errors import (
    EmptyGraph,
    InsufficientCoefficient,
    NotRegular,
    UnknownVertex,
)
from .graph_core import Graph

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
    where folding apply_relation over the steps would.

    A step lowers only its own vertex, so when every stepped name is a
    regular vertex whose start coefficient covers its number of steps, the
    i-th step at v finds at least start[v] - (i - 1) >= 1 there in any
    order.  Such a count-certified trace is applied as counts, in
    O(len(trace)) at C speed plus O(V + E); any other trace is replayed
    step by step."""
    if not trace.steps:
        return start
    moves = _moves(g)
    # a vertex outside the graph stays in every state, so the first step
    # that passes its own checks fails on it
    stray = next((v for v, _ in start.items() if v not in g.index), None)
    state = [start.get(v) for v in g.vertices]
    if stray is None:
        counts = Counter(trace.steps)
        if all(v in moves and state[moves[v][0]] >= c for v, c in counts.items()):
            for v, c in counts.items():
                _fire(state, moves[v], c)
            return _to_vector(g, state)
    for v in trace.steps:
        move = moves.get(v)
        if move is None:
            raise NotRegular(v) if v in g.index else UnknownVertex(v)
        vi, dsts = move
        if state[vi] < 1:
            raise InsufficientCoefficient(v)
        if stray is not None:
            raise UnknownVertex(stray)
        state[vi] -= 1
        for j in dsts:
            state[j] += 1
    return _to_vector(g, state)


def _moves(g: Graph) -> dict[str, tuple[int, tuple[int, ...]]]:
    """The rewrite table: each regular vertex, in canonical order, mapped
    to its index in g.vertices and the index of the range of each edge it
    emits.  One step at v subtracts 1 at the first and adds 1 at each of
    the second; every rewrite in this module applies it.  Built in
    O(V + E) on first use and kept on the graph; callers only read it."""
    if g._move_table is None:
        pos = g.index
        table = {}
        for v in g.vertices:
            out = g.out_edges(v)
            if out:
                table[v] = (pos[v], tuple(pos[e.dst] for e in out))
        g._move_table = table
    return g._move_table


def _to_state(g: Graph, x: MonoidVector) -> list[int]:
    _check_support(g, x)
    return [x.get(v) for v in g.vertices]


def _to_vector(g: Graph, state: Sequence[int]) -> MonoidVector:
    return MonoidVector({v: c for v, c in zip(g.vertices, state)})


def _fire(state: list[int], move: tuple[int, tuple[int, ...]], times: int) -> None:
    """Apply one move table entry `times` times to a state in place."""
    vi, dsts = move
    state[vi] -= times
    for j in dsts:
        state[j] += times


def execute_counts(
    g: Graph, start: MonoidVector, counts: Mapping[str, int]
) -> Optional[tuple[MonoidVector, RewriteTrace]]:
    """Greedily apply the relation count(v) times at each regular vertex v:
    round-robin sweeps in canonical order, one application per eligible
    vertex per sweep.  None when a full sweep makes no progress.

    Once every vertex with r_v > 0 steps left holds at least r_v units at
    the start of a sweep, the rest is fixed: a step lowers only its own
    vertex, so the s-th sweep from there fires exactly the vertices with
    r_v >= s.  That tail is emitted as each level's sweep repeated and
    its end state applied as counts, in O(V + E) beyond the trace."""
    moves = _moves(g)
    remaining = {}
    for v, c in counts.items():
        if not g.has_vertex(v):
            raise UnknownVertex(v)
        if v not in moves:
            raise NotRegular(f"count given for non-regular vertex {v}")
        c = int(c)
        if c < 0:
            raise ValueError(f"negative count at {v}")
        if c:
            remaining[v] = c
    state = _to_state(g, start)
    counted = [(v, vi, dsts) for v, (vi, dsts) in moves.items() if v in remaining]

    def sweeps():
        # each sweep's steps, or the fixed tail, go straight into the
        # trace tuple, never held twice
        while remaining:
            if all(state[moves[v][0]] >= r for v, r in remaining.items()):
                yield fixed_tail()
                return
            sweep = []
            for v, vi, dsts in counted:
                if v in remaining and state[vi] >= 1:
                    state[vi] -= 1
                    for j in dsts:
                        state[j] += 1
                    sweep.append(v)
                    remaining[v] -= 1
                    if not remaining[v]:
                        del remaining[v]
            if not sweep:  # a full sweep made no progress
                return
            yield sweep

    def fixed_tail():
        live = [(v, remaining[v]) for v, _, _ in counted if v in remaining]
        for v, r in live:
            _fire(state, moves[v], r)
        remaining.clear()
        blocks, done = [], 0
        for level in sorted({r for _, r in live}):
            sweep = tuple(v for v, r in live if r >= level)
            blocks.append(repeat(sweep, level - done))
            done = level
        return chain.from_iterable(chain.from_iterable(blocks))

    steps = tuple(chain.from_iterable(sweeps()))
    if remaining:
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


class _Packing:
    """The states of one graph's searches packed into single integers, one
    fixed-width field per vertex, so a rewrite step is one integer
    addition and closure lookups hash ints instead of tuples.  The width
    leaves headroom above the coefficient-sum cap and the largest start
    coordinate (starts are never pruned), and the pre-checked coefficient
    at the rewritten vertex keeps fields from borrowing into each other."""

    def __init__(self, g: Graph, budget: Optional[SearchBudget], largest_start: int):
        if budget is None:
            budget = SearchBudget()
        max_sum = budget.max_coeff_sum
        if max_sum is None:
            max_sum = COEFF_SUM_CAP_FACTOR * max(1, len(g.vertices))
        width = max(max(max_sum, largest_start).bit_length() + 1, 8)
        self.g = g
        self.field = (1 << width) - 1
        self.shifts = [i * width for i in range(len(g.vertices))]
        self.max_sum = max_sum
        self.max_states = budget.max_states
        moves = _moves(g)
        self.names = tuple(moves)
        # (field of the rewritten vertex, packed delta, largest coefficient
        # sum the move may start from, change in coefficient sum, index)
        self.moves = tuple(
            (
                self.field << self.shifts[vi],
                sum(1 << self.shifts[j] for j in dsts) - (1 << self.shifts[vi]),
                max_sum - (len(dsts) - 1),
                len(dsts) - 1,
                index,
            )
            for index, (vi, dsts) in enumerate(moves.values())
        )

    def pack(self, coeffs: Sequence[int]) -> int:
        # arithmetic packing so delta entries of -1 stay correct
        return sum(c << sh for sh, c in zip(self.shifts, coeffs))

    def closure(self, coeffs: Sequence[int]) -> _Closure:
        return _Closure(self, self.pack(coeffs), sum(coeffs))

    def equal(self, x: _Closure, y: _Closure, state: int) -> Equal:
        common = [state >> sh & self.field for sh in self.shifts]
        return Equal(x.trace(state), y.trace(state), _to_vector(self.g, common))


class _Closure:
    """The breadth-first forward closure of one packed start, grown many
    pops per call and kept, so every pair search with this start shares
    it.  found maps each state to its discovery event, pop index *
    len(moves) + move index (-1 for the start).  A move finds at most one
    state per pop, so the codes order the closure's discoveries, and the
    state minus that move's packed delta is the parent.  Breadth-first
    order fixes every code, however far the closure is grown and in how
    many calls.  The queue is dropped once the closure can pop no more:
    it ran empty or made max_states pops."""

    __slots__ = ("packing", "found", "queue", "pops")

    def __init__(self, packing: _Packing, start: int, total: int):
        self.packing = packing
        self.found = {start: -1}
        self.queue = deque([(start, total)]) if packing.max_states > 0 else None
        self.pops = 0

    def grow(self, other: dict, pops: int) -> list[int]:
        """Expand queued states, successors in canonical vertex order,
        until the closure has made `pops` pops or can pop no more; return
        the fresh states that other already holds."""
        pk = self.packing
        moves, n = pk.moves, len(pk.moves)
        found, queue = self.found, self.queue
        popleft, append = queue.popleft, queue.append
        done = self.pops
        stop = min(pops, pk.max_states)
        hits = []
        while done < stop and queue:
            state, total = popleft()
            code = done * n
            done += 1
            for mask, pdelta, cap, gr, j in moves:
                if state & mask and total <= cap:
                    succ = state + pdelta
                    if succ not in found:
                        found[succ] = code + j
                        append((succ, total + gr))
                        if succ in other:
                            hits.append(succ)
        self.pops = done
        if not queue or done >= pk.max_states:
            self.queue = None
        return hits

    def trace(self, state: int) -> RewriteTrace:
        moves, names = self.packing.moves, self.packing.names
        steps = []
        code = self.found[state]
        while code >= 0:
            j = code % len(moves)
            steps.append(names[j])
            state -= moves[j][1]  # the packed delta
            code = self.found[state]
        steps.reverse()
        return RewriteTrace(tuple(steps))


_MAX_STEP = 256  # most rounds _meet grows a side by between stop checks


def _meet(x: _Closure, y: _Closure) -> Optional[int]:
    """The state at which two fresh closures expanded in lockstep would
    first meet, or None when they cannot within the budget.  In the
    lockstep each round pops side x, then side y, and stops at the first
    state that one side finds while the other already holds it; so the
    meet is the common state whose later discovery, ordered by (round,
    side, move), comes first.  Closures may arrive grown by earlier
    pairs: their common states are compared first, the rounds both sides
    have already made are skipped, and each fresh discovery looks up the
    other side.

    Each side is grown by a step of rounds that doubles from 1 up to
    _MAX_STEP, so one Python call covers many pops.  That leaves the
    result unchanged: discovery codes do not depend on how far a closure
    is grown, every common state is seen by whichever side discovers it
    second, and the meet is only returned once both live sides have made
    every round that could hold an earlier one.  Overshooting costs pops,
    never a different answer."""
    n = len(x.packing.moves)

    def when(code: int, side: int) -> int:
        # (round, side, move) as one integer; the start precedes everything
        return -1 if code < 0 else code + (code // n + side) * n

    best, best_at = None, None

    def consider(states):
        nonlocal best, best_at
        for s in states:
            at = max(when(x.found[s], 0), when(y.found[s], 1))
            if best_at is None or at < best_at:
                best, best_at = s, at

    consider(x.found.keys() & y.found.keys())
    step = 1
    while True:
        if x.queue is None:
            if y.queue is None:
                return best
            rnd = y.pops
        else:
            rnd = x.pops if y.queue is None else min(x.pops, y.pops)
        # every discovery of the rounds before rnd is known by now
        if best_at is not None and best_at < 2 * n * rnd:
            return best
        target = rnd + step
        step = min(2 * step, _MAX_STEP)
        if x.queue is not None and x.pops < target:
            consider(x.grow(y.found, target))
        if y.queue is not None and y.pops < target:
            consider(y.grow(x.found, target))


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
    sx = _to_state(g, x)
    sy = _to_state(g, y)
    packing = _Packing(g, budget, max(sx + sy, default=0))
    cx, cy = packing.closure(sx), packing.closure(sy)
    meet = _meet(cx, cy)
    if meet is None:
        return NotFoundWithinBudget(cx.pops + cy.pops)
    return packing.equal(cx, cy, meet)


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
    # one closure per start k * sum(V), shared by every pair that needs it;
    # closure n is dropped once row n is done
    packing = _Packing(g, budget, max_mn)
    closures: dict[int, _Closure] = {}

    def closure(k: int) -> _Closure:
        if k not in closures:
            closures[k] = packing.closure([k] * len(g.vertices))
        return closures[k]

    for n in range(1, max_mn):
        for m in range(n + 1, max_mn + 1):
            meet = _meet(closure(m), closure(n))
            if meet is not None:
                return RefuteResult(m, n, packing.equal(closures[m], closures[n], meet))
        del closures[n]
    return None
