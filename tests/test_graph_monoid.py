import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import families
from leavitt_ibn import (
    Equal,
    MonoidVector,
    NotFoundWithinBudget,
    RewriteTrace,
    SearchBudget,
    apply_relation,
    build_graph,
    equal_in_monoid,
    execute_counts,
    ibn_refute_search,
    replay_trace,
    uniform_vector,
)
from leavitt_ibn import graph_monoid
from leavitt_ibn.errors import (
    EmptyGraph,
    GraphAlgebraError,
    InsufficientCoefficient,
    NotRegular,
    UnknownVertex,
)


def test_monoid_vector_normalizes_zeros():
    assert MonoidVector({"a": 0, "b": 2}) == MonoidVector({"b": 2})
    assert MonoidVector({}).is_zero()
    assert MonoidVector({"a": 1}).get("missing") == 0
    assert hash(MonoidVector({"a": 1, "b": 0})) == hash(MonoidVector({"a": 1}))


def test_monoid_vector_rejects_negative():
    with pytest.raises(ValueError):
        MonoidVector({"a": -1})


def test_uniform_vector(ex26):
    assert uniform_vector(ex26, 2) == MonoidVector({"v1": 2, "v2": 2, "v3": 2})
    assert uniform_vector(ex26, 0).is_zero()


# ── single rewrite steps ─────────────────────────────────────────────


def test_apply_relation_effect(ex26):
    # at v1: one unit becomes 2v1 + v2 (two loops, one edge out)
    got = apply_relation(ex26, MonoidVector({"v1": 1}), "v1")
    assert got == MonoidVector({"v1": 2, "v2": 1})
    # at v2: one unit becomes v2 + v3 (loop plus chain edge)
    got = apply_relation(ex26, MonoidVector({"v2": 1}), "v2")
    assert got == MonoidVector({"v2": 1, "v3": 1})


def test_apply_relation_errors(ex26):
    with pytest.raises(NotRegular):
        apply_relation(ex26, MonoidVector({"v3": 1}), "v3")
    with pytest.raises(InsufficientCoefficient):
        apply_relation(ex26, MonoidVector({"v2": 1}), "v1")
    with pytest.raises(UnknownVertex):
        apply_relation(ex26, MonoidVector({"v1": 1}), "nope")
    with pytest.raises(UnknownVertex):
        apply_relation(ex26, MonoidVector({"ghost": 1, "v1": 1}), "v1")


def test_replay_trace(ex26):
    start = uniform_vector(ex26, 1)
    end = replay_trace(ex26, start, RewriteTrace(("v1", "v2")))
    assert end == MonoidVector({"v1": 2, "v2": 2, "v3": 2})
    assert replay_trace(ex26, start, RewriteTrace(())) == start


def _outcome(fn):
    """The result, or the type and message of the package error raised."""
    try:
        return fn()
    except GraphAlgebraError as exc:
        return type(exc), str(exc)


def _folded(g, start, steps):
    x = start
    for v in steps:
        x = apply_relation(g, x, v)
    return x


def test_replay_trace_errors_match_folded_apply_relation(ex26):
    cases = [
        (uniform_vector(ex26, 1), ("v1", "nope")),  # unknown vertex
        (uniform_vector(ex26, 1), ("v2", "v3")),  # sink
        (MonoidVector({"v2": 1}), ("v2", "v1")),  # zero coefficient
        (MonoidVector({"ghost": 1, "v1": 1}), ("v1",)),  # unknown support
        (MonoidVector({"ghost": 1}), ("v3",)),  # sink beats unknown support
        (MonoidVector({"ghost": 1}), ("v1",)),  # so does a zero coefficient
        (MonoidVector({"ghost": 1}), ()),  # no step, nothing checked
    ]
    want_types = [
        UnknownVertex,
        NotRegular,
        InsufficientCoefficient,
        UnknownVertex,
        NotRegular,
        InsufficientCoefficient,
        MonoidVector,
    ]
    for (start, steps), want in zip(cases, want_types):
        got = _outcome(lambda: replay_trace(ex26, start, RewriteTrace(steps)))
        assert got == _outcome(lambda: _folded(ex26, start, steps))
        assert (got[0] if isinstance(got, tuple) else type(got)) is want


def test_replay_trace_matches_folded_apply_relation_on_random_traces():
    rng = random.Random(families.RANDOM_GRAPH_SEED + 7)
    seen = set()
    for g in families.random_graphs(300, seed=families.RANDOM_GRAPH_SEED + 8):
        names = list(g.vertices) + ["ghost"]
        support = names if rng.random() < 0.1 else list(g.vertices)
        start = MonoidVector({v: rng.randint(0, 3) for v in support})
        steps = tuple(
            rng.choice(names) if rng.random() < 0.05 else rng.choice(g.vertices)
            for _ in range(rng.randint(0, 12))
        )
        got = _outcome(lambda: replay_trace(g, start, RewriteTrace(steps)))
        assert got == _outcome(lambda: _folded(g, start, steps))
        seen.add(got[0] if isinstance(got, tuple) else MonoidVector)
    assert seen == {MonoidVector, UnknownVertex, NotRegular, InsufficientCoefficient}


def _certified(rng, g, top):
    """Counts at some regular vertices and a start that covers them, plus
    spare units: the witness regime, where every order of the steps is
    legal.  Levels are drawn from a few values, so many are equal."""
    regular = [v for v in g.vertices if g.out_edges(v)]
    levels = [rng.randint(1, top) for _ in range(3)]
    counts = {v: rng.choice(levels + [rng.randint(0, top)]) for v in regular}
    start = MonoidVector({v: counts.get(v, 0) + rng.randint(0, 2) for v in g.vertices})
    return start, counts


def test_certified_traces_replay_in_any_order():
    rng = random.Random(families.RANDOM_GRAPH_SEED + 21)
    for g in families.random_graphs(200, seed=families.RANDOM_GRAPH_SEED + 22):
        start, counts = _certified(rng, g, 4)
        steps = [v for v, c in counts.items() for _ in range(c)]
        rng.shuffle(steps)
        got = replay_trace(g, start, RewriteTrace(tuple(steps)))
        assert got == _folded(g, start, steps)


# ── greedy schedules ─────────────────────────────────────────────────


def test_execute_counts_ex26(ex26):
    got = execute_counts(ex26, uniform_vector(ex26, 1), {"v1": 1, "v2": 1})
    assert got is not None
    final, trace = got
    assert final == MonoidVector({"v1": 2, "v2": 2, "v3": 2})
    assert trace.steps == ("v1", "v2")


def test_execute_counts_zero_counts_is_identity(ex26):
    start = uniform_vector(ex26, 3)
    final, trace = execute_counts(ex26, start, {})
    assert final == start
    assert trace.steps == ()


def test_execute_counts_stuck_returns_none(ex26):
    assert execute_counts(ex26, MonoidVector({}), {"v1": 1}) is None


def test_execute_counts_round_robin_interleaves(ex26):
    got = execute_counts(ex26, uniform_vector(ex26, 1), {"v1": 2, "v2": 2})
    assert got is not None
    _, trace = got
    assert trace.steps == ("v1", "v2", "v1", "v2")


def test_execute_counts_validates_keys(ex26):
    with pytest.raises(UnknownVertex):
        execute_counts(ex26, uniform_vector(ex26, 1), {"nope": 1})
    with pytest.raises(NotRegular):
        execute_counts(ex26, uniform_vector(ex26, 1), {"v3": 1})
    with pytest.raises(ValueError):
        execute_counts(ex26, uniform_vector(ex26, 1), {"v1": -1})


def test_execute_counts_matches_swept_oracle():
    rng = random.Random(families.RANDOM_GRAPH_SEED + 15)
    outcomes = []
    for g in families.random_graphs(400, seed=families.RANDOM_GRAPH_SEED + 16):
        regular = [v for v in g.vertices if g.out_edges(v)]
        for _ in range(5):
            start = MonoidVector({v: rng.randint(0, 2) for v in g.vertices})
            counts = {v: rng.randint(0, 3) for v in regular if rng.random() < 0.7}
            got = execute_counts(g, start, counts)
            assert got == families.swept_execute_counts(g, start, counts)
            outcomes.append(got is None)
    # both outcomes occur often enough to mean something
    assert 200 < sum(outcomes) < len(outcomes) - 200


def test_execute_counts_closed_form_matches_swept_oracle():
    rng = random.Random(families.RANDOM_GRAPH_SEED + 23)
    late = 0
    for g in families.random_graphs(300, seed=families.RANDOM_GRAPH_SEED + 24):
        start, counts = _certified(rng, g, 6)
        assert execute_counts(g, start, counts) == families.swept_execute_counts(
            g, start, counts
        )
        # starts too small at first: stepwise sweeps until the counts are
        # covered, then the closed form
        low = MonoidVector({v: rng.randint(0, 1) for v in g.vertices})
        got = execute_counts(g, low, counts)
        assert got == families.swept_execute_counts(g, low, counts)
        late += got is not None and any(low.get(v) < c for v, c in counts.items())
    assert late > 30


def test_execute_counts_closed_form_after_a_stepwise_sweep(ex26):
    # v1 holds 1 < 3: one sweep step by step, then 2 and 1 left are covered
    start = MonoidVector({"v1": 1})
    final, trace = execute_counts(ex26, start, {"v1": 3, "v2": 2})
    assert trace.steps == ("v1", "v2", "v1", "v2", "v1")
    assert final == _folded(ex26, start, trace.steps)


def test_execute_counts_is_linear_on_a_large_graph():
    # 2000 vertices, each with two loops and an edge to the next: a dense
    # per-vertex effect vector would cost 4 M entries here
    h = 2000
    vs = [f"v{i}" for i in range(h)]
    edges = [(f"a{i}", v, v) for i, v in enumerate(vs)]
    edges += [(f"b{i}", v, v) for i, v in enumerate(vs)]
    edges += [(f"c{i}", vs[i], vs[i + 1]) for i in range(h - 1)]
    g = build_graph(vs, edges)
    start = uniform_vector(g, 1)
    counts = {v: 3 for v in vs[:-1]}
    best = float("inf")
    for _ in range(3):
        began = time.perf_counter()
        got = execute_counts(g, start, counts)
        best = min(best, time.perf_counter() - began)
    assert got is not None and len(got[1]) == 3 * (h - 1)
    assert best < 0.1


def test_witness_sized_schedules_build_and_replay_in_closed_form():
    # about 2 * 10**6 steps at 200 distinct levels; a step-by-step build
    # and replay take well over a second here
    h, top = 200, 10_000
    vs = [f"v{i}" for i in range(h)]
    edges = [(f"a{i}", v, v) for i, v in enumerate(vs)]
    edges += [(f"c{i}", vs[i], vs[(i + 1) % h]) for i in range(h)]
    g = build_graph(vs, edges)
    start = uniform_vector(g, top)
    counts = {v: top - i for i, v in enumerate(vs)}
    best = float("inf")
    for _ in range(3):
        began = time.perf_counter()
        final, trace = execute_counts(g, start, counts)
        end = replay_trace(g, start, trace)
        best = min(best, time.perf_counter() - began)
    assert len(trace) == sum(counts.values()) and end == final
    assert trace.steps[:h] == tuple(vs) and trace.steps[-1] == vs[0]
    assert best < 0.5


# ── equality search ──────────────────────────────────────────────────


def test_equal_in_monoid_identical_inputs(ex26):
    res = equal_in_monoid(ex26, uniform_vector(ex26, 2), uniform_vector(ex26, 2))
    assert isinstance(res, Equal)
    assert res.trace_x.steps == ()
    assert res.trace_y.steps == ()


def test_equal_in_monoid_loop_identity_is_inconclusive():
    r1 = families.rose(1)
    res = equal_in_monoid(r1, MonoidVector({"v": 1}), MonoidVector({"v": 2}))
    # the only relation is the identity, so closures are singletons
    assert isinstance(res, NotFoundWithinBudget)


def test_equal_in_monoid_finds_ex26_collapse(ex26):
    res = equal_in_monoid(ex26, uniform_vector(ex26, 2), uniform_vector(ex26, 1))
    assert isinstance(res, Equal)
    assert replay_trace(ex26, uniform_vector(ex26, 2), res.trace_x) == res.common
    assert replay_trace(ex26, uniform_vector(ex26, 1), res.trace_y) == res.common


def test_equal_in_monoid_verdict_is_symmetric(ex26, f29):
    for g, a, b in [(ex26, 2, 1), (f29, 2, 1), (ex26, 3, 1)]:
        x, y = uniform_vector(g, a), uniform_vector(g, b)
        fwd = equal_in_monoid(g, x, y)
        bwd = equal_in_monoid(g, y, x)
        assert isinstance(fwd, Equal) == isinstance(bwd, Equal)


def test_equal_in_monoid_budget_monotone(ex26):
    x, y = uniform_vector(ex26, 2), uniform_vector(ex26, 1)
    small = equal_in_monoid(ex26, x, y, SearchBudget(max_states=2))
    big = equal_in_monoid(ex26, x, y, SearchBudget(max_states=10_000))
    assert isinstance(big, Equal)
    if isinstance(small, Equal):
        # enlarging the budget must not lose the hit
        assert isinstance(big, Equal)


def test_equal_in_monoid_tiny_budget_is_inconclusive(ex26):
    x, y = uniform_vector(ex26, 4), uniform_vector(ex26, 1)
    res = equal_in_monoid(
        ex26, x, y, SearchBudget(max_states=1, max_coeff_sum=4)
    )
    assert isinstance(res, NotFoundWithinBudget)


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3))
def test_equal_in_monoid_uniform_pairs_on_f29(a, b):
    # the chain-with-double-loop graph admits no uniform collapse, so the
    # search can only succeed on identical multiples
    g = families.f29()
    res = equal_in_monoid(
        g, uniform_vector(g, a), uniform_vector(g, b), SearchBudget(max_states=3_000)
    )
    if a == b:
        assert isinstance(res, Equal)
    else:
        assert isinstance(res, NotFoundWithinBudget)


# ── refutation scan ──────────────────────────────────────────────────


def test_refute_search_ex26(ex26):
    res = ibn_refute_search(ex26)
    assert (res.m, res.n) == (2, 1)
    assert res.equality.common == MonoidVector({"v1": 2, "v2": 2, "v3": 2})


def test_refute_search_rose():
    assert ibn_refute_search(families.rose(1)) is None
    res = ibn_refute_search(families.rose(2))
    assert (res.m, res.n) == (2, 1)
    # replay both schedules to the common element
    r2 = families.rose(2)
    assert replay_trace(r2, uniform_vector(r2, 2), res.equality.trace_x) == res.equality.common
    assert replay_trace(r2, uniform_vector(r2, 1), res.equality.trace_y) == res.equality.common


def test_refute_search_path_graph_finds_nothing():
    assert ibn_refute_search(families.a_path(3)) is None


def test_refute_search_respects_budget(ex26):
    res = ibn_refute_search(ex26, budget=SearchBudget(max_states=1, max_coeff_sum=3))
    assert res is None  # inconclusive, not a verdict


def test_refute_search_empty_graph():
    from leavitt_ibn import build_graph

    with pytest.raises(EmptyGraph):
        ibn_refute_search(build_graph([], []))


# ── shared closures against the lockstep oracle ──────────────────────


def _outcome_key(res):
    if res is None or isinstance(res, NotFoundWithinBudget):
        return res
    if isinstance(res, Equal):
        return (res.trace_x.steps, res.trace_y.steps, res.common)
    return (res.m, res.n, _outcome_key(res.equality))


def _assert_refute_parity(g, max_mn, budget):
    got = ibn_refute_search(g, max_mn, budget)
    want = families.lockstep_refute_search(g, max_mn, budget)
    assert _outcome_key(got) == _outcome_key(want), (g, max_mn, budget)
    return got


def test_refute_search_matches_lockstep_on_small_graphs():
    found = 0
    for g in families.all_graphs(max_vertices=2):
        for budget in (SearchBudget(300), SearchBudget(40, 6), SearchBudget(0)):
            found += _assert_refute_parity(g, 4, budget) is not None
    assert found > 10


def test_shared_closures_match_lockstep_on_random_graphs():
    _assert_random_graphs_match_lockstep()


@pytest.mark.parametrize("cap", [1, 10**9])
def test_outcomes_do_not_depend_on_the_step_cap(monkeypatch, cap):
    # 1 grows a side one round per call, as a lockstep would; 10**9 lets a
    # step run past every budget before the stop rule is checked
    monkeypatch.setattr(graph_monoid, "_MAX_STEP", cap)
    _assert_random_graphs_match_lockstep()


def _assert_random_graphs_match_lockstep():
    rng = random.Random(families.RANDOM_GRAPH_SEED + 14)
    for g in families.random_graphs(200, seed=families.RANDOM_GRAPH_SEED + 15):
        for budget in (SearchBudget(20), SearchBudget(200)):
            _assert_refute_parity(g, rng.randint(2, 5), budget)
            x, y = (MonoidVector({v: rng.randint(0, 3) for v in g.vertices}) for _ in "xy")
            got = equal_in_monoid(g, x, y, budget)
            want = families.lockstep_equal_in_monoid(g, x, y, budget)
            # NotFoundWithinBudget compares states_explored too
            assert _outcome_key(got) == _outcome_key(want), (g, x, y, budget)


def test_two_cached_closures_meet_as_in_lockstep():
    # the only <= 3-vertex graphs that refute at (4, 2) with 25 states per
    # side: closures 4 and 2 were both grown by earlier pairs when they meet
    graphs = list(itertools.islice(families.all_graphs(max_vertices=3), 4370))
    for i in (2266, 4369):
        res = _assert_refute_parity(graphs[i], 4, SearchBudget(25))
        assert (res.m, res.n) == (4, 2)


def _walk(rng, g, z, steps):
    for _ in range(steps):
        legal = [v for v in g.vertices if z.get(v) and g.out_edges(v)]
        if not legal:
            break
        z = apply_relation(g, z, rng.choice(legal))
    return z


def test_meet_of_grown_closures_matches_lockstep():
    # The pair routine must not depend on how far earlier pairs grew the
    # closures.  Starts a few steps from a common element meet early, often
    # with several candidates in one round; one side is grown a few pops,
    # the other up to three budgets' worth, each way round.
    rng = random.Random(families.RANDOM_GRAPH_SEED + 16)
    graphs = families.random_graphs(
        1000, seed=families.RANDOM_GRAPH_SEED + 17, max_vertices=3, max_edges=8
    )
    for g in graphs:
        budget = SearchBudget(rng.choice((4, 12)))
        z = MonoidVector({v: rng.randint(0, 2) for v in g.vertices})
        x, y = _walk(rng, g, z, rng.randint(0, 2)), _walk(rng, g, z, rng.randint(0, 2))
        want = families.lockstep_equal_in_monoid(g, x, y, budget)
        sx, sy = ([vec.get(v) for v in g.vertices] for vec in (x, y))
        packing = graph_monoid._Packing(g, budget, max(sx + sy))
        for x_ahead in (False, True):
            cx, cy = packing.closure(sx), packing.closure(sy)
            ahead, behind = (cx, cy) if x_ahead else (cy, cx)
            for c, pops in ((behind, 3), (ahead, 3 * budget.max_states)):
                c.grow({}, rng.randint(0, pops))
            meet = graph_monoid._meet(cx, cy)
            if meet is None:
                got = NotFoundWithinBudget(cx.pops + cy.pops)
            else:
                got = packing.equal(cx, cy, meet)
            assert _outcome_key(got) == _outcome_key(want), (g, x, y, budget)


def test_refute_search_builds_one_closure_per_start(monkeypatch):
    built = []

    class CountingClosure(graph_monoid._Closure):
        __slots__ = ()

        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(graph_monoid, "_Closure", CountingClosure)
    # a cycle has IBN, so every pair 1 <= n < m <= 5 is searched
    assert ibn_refute_search(families.a_cycle(3), 5, SearchBudget(200)) is None
    assert len(built) == 5
