import itertools

import pytest
from hypothesis import given, strategies as st

import families
from leavitt_ibn import (
    build_graph,
    canonical_order,
    enumerate_simple_cycles,
    is_hereditary,
)
from leavitt_ibn.errors import (
    DanglingEndpoint,
    DuplicateEdge,
    DuplicateVertex,
    InvalidToken,
    UnknownVertex,
)


@st.composite
def graphs(draw, max_vertices=5, max_edges=10):
    h = draw(st.integers(1, max_vertices))
    vs = [f"v{i}" for i in range(1, h + 1)]
    m = draw(st.integers(0, max_edges))
    edges = [
        (f"e{i}", draw(st.sampled_from(vs)), draw(st.sampled_from(vs)))
        for i in range(m)
    ]
    return build_graph(vs, edges)


# ── construction ─────────────────────────────────────────────────────


def test_build_graph_preserves_order(ex26):
    assert ex26.vertices == ("v1", "v2", "v3")
    assert tuple(e.id for e in ex26.edges) == ("l1", "l2", "e", "f", "g")


def test_build_graph_rejects_duplicates_and_dangling():
    with pytest.raises(DuplicateVertex):
        build_graph(["a", "a"], [])
    with pytest.raises(DuplicateEdge):
        build_graph(["a"], [("e", "a", "a"), ("e", "a", "a")])
    with pytest.raises(DanglingEndpoint):
        build_graph(["a"], [("e", "a", "b")])
    with pytest.raises(DanglingEndpoint):
        build_graph(["a"], [("e", "b", "a")])


def test_build_graph_rejects_bad_tokens():
    with pytest.raises(InvalidToken):
        build_graph(["a b"], [])
    with pytest.raises(InvalidToken):
        build_graph(["a"], [("e'", "a", "a")])
    with pytest.raises(InvalidToken):
        build_graph([""], [])


# ── hereditary sets ──────────────────────────────────────────────────


def test_is_hereditary_fixture_values(ex26):
    assert is_hereditary(ex26, {"v2", "v3"})
    assert is_hereditary(ex26, {"v3"})
    assert not is_hereditary(ex26, {"v2"})  # loses g: v2 -> v3
    assert not is_hereditary(ex26, {"v1"})
    assert is_hereditary(ex26, set(ex26.vertices))
    assert is_hereditary(ex26, set())


@given(graphs(), st.data())
def test_hereditary_sets_closed_under_union_and_intersection(g, data):
    # forward closures are hereditary by construction
    seeds_a = data.draw(st.lists(st.sampled_from(g.vertices), max_size=3))
    seeds_b = data.draw(st.lists(st.sampled_from(g.vertices), max_size=3))
    reach = families.brute_reachability(g)
    a = {w for v in seeds_a for w in g.vertices if reach[(v, w)]}
    b = {w for v in seeds_b for w in g.vertices if reach[(v, w)]}
    assert is_hereditary(g, a)
    assert is_hereditary(g, b)
    assert is_hereditary(g, a | b)
    assert is_hereditary(g, a & b)


# ── cycles ───────────────────────────────────────────────────────────


def test_cycles_ex26(ex26):
    assert enumerate_simple_cycles(ex26) == (("l1",), ("l2",), ("f",))


def test_cycles_two_cycle_with_chord():
    g = build_graph(
        ["a", "b"],
        [("ab", "a", "b"), ("ba", "b", "a"), ("ab2", "a", "b")],
    )
    got = enumerate_simple_cycles(g)
    assert set(got) == {("ab", "ba"), ("ab2", "ba")}
    # canonical rotation starts at the smaller vertex index
    assert all(c[0].startswith("ab") for c in got)


def test_cycles_match_brute_force_small():
    for g in families.all_graphs(max_vertices=2):
        assert set(enumerate_simple_cycles(g)) == families.brute_cycles(g)


def test_cycles_match_brute_force_random():
    for g in families.random_graphs(
        150, seed=families.RANDOM_GRAPH_SEED + 1, max_vertices=4, max_edges=10
    ):
        assert set(enumerate_simple_cycles(g)) == families.brute_cycles(g)


def test_cycles_order_matches_recursive_search():
    graphs = itertools.chain(
        families.all_graphs(max_vertices=3, max_parallel=1),
        families.random_graphs(
            200, seed=families.RANDOM_GRAPH_SEED + 42, max_vertices=6, max_edges=12
        ),
    )
    for g in graphs:
        assert list(enumerate_simple_cycles(g)) == families.recursive_simple_cycles(g)


def test_cycles_on_long_cycle_do_not_recurse():
    h = 3000
    g = families.a_cycle(h)
    assert enumerate_simple_cycles(g) == (tuple(f"e{i}" for i in range(h)),)


# ── canonical order ──────────────────────────────────────────────────


def test_canonical_order_fixtures(ex26, e29, f29, triv):
    assert canonical_order(ex26) == (("v1", "v2", "v3"), 2)
    assert canonical_order(e29) == (("v0", "v1", "v2", "v3"), 3)
    assert canonical_order(f29) == (("v1", "v2", "v3"), 2)
    assert canonical_order(triv) == (("v",), 0)


def test_canonical_order_moves_sinks_back():
    g = build_graph(["s", "a", "b"], [("e1", "a", "s"), ("e2", "b", "s")])
    order, z = canonical_order(g)
    assert order == ("a", "b", "s")
    assert z == 2


@given(graphs())
def test_canonical_order_is_permutation_with_regular_prefix(g):
    order, z = canonical_order(g)
    assert sorted(order) == sorted(g.vertices)
    assert all(g.out_degree(v) > 0 for v in order[:z])
    assert all(g.out_degree(v) == 0 for v in order[z:])
