import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import families
from leavitt_ibn import build_graph, gtf, parse_gtf, serialize_graph
from leavitt_ibn.errors import (
    DanglingEndpoint,
    DuplicateEdge,
    DuplicateVertex,
    ParseError,
)
from leavitt_ibn.gtf import MAX_COUNTED_EDGES


def test_parse_basic_with_comments():
    text = """\
# the double-loop fixture
vertex v1
vertex v2  # chain middle
vertex v3

edges v1 v1 2     # two parallel loops
edge e v1 v2
edge f v2 v2
edge g v2 v3
"""
    g = parse_gtf(text)
    assert g.vertices == ("v1", "v2", "v3")
    assert [(e.id, e.src, e.dst) for e in g.edges] == [
        ("v1__v1__1", "v1", "v1"),
        ("v1__v1__2", "v1", "v1"),
        ("e", "v1", "v2"),
        ("f", "v2", "v2"),
        ("g", "v2", "v3"),
    ]


def test_parse_empty_text_gives_empty_graph():
    g = parse_gtf("# nothing here\n\n")
    assert g.vertices == ()
    assert g.edges == ()


def test_edges_directive_numbering_is_cumulative():
    text = "vertex a\nvertex b\nedges a b 2\nedges a b 1\nedges b a 1\n"
    g = parse_gtf(text)
    assert [e.id for e in g.edges] == ["a__b__1", "a__b__2", "a__b__3", "b__a__1"]


def test_serialize_round_trip_fixtures():
    for g in (
        families.ex26(),
        families.e29(),
        families.f29(),
        families.triv(),
        families.ex36(),
        families.rose(3),
        build_graph([], []),
    ):
        assert parse_gtf(serialize_graph(g)) == g


def test_serialize_form(triv):
    assert serialize_graph(triv) == "vertex v\n"
    assert serialize_graph(build_graph([], [])) == ""
    two = build_graph(["a", "b"], [("e", "a", "b")])
    assert serialize_graph(two) == "vertex a\nvertex b\nedge e a b\n"


def test_round_trip_random_graphs():
    for g in families.random_graphs(100, seed=families.RANDOM_GRAPH_SEED + 17):
        assert parse_gtf(serialize_graph(g)) == g


@settings(max_examples=50)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=6))
def test_round_trip_generated_roses(loops):
    vs = [f"v{i}" for i in range(len(loops))]
    es = [
        (f"l{i}_{j}", vs[i], vs[i])
        for i, k in enumerate(loops)
        for j in range(k)
    ]
    g = build_graph(vs, es)
    assert parse_gtf(serialize_graph(g)) == g


# ── rejection paths, with line numbers ───────────────────────────────


def _parse_error(text):
    with pytest.raises(ParseError) as info:
        parse_gtf(text)
    return info.value


def test_unknown_directive():
    err = _parse_error("vertex a\nnode b\n")
    assert err.line == 2
    assert "node" in err.message


def test_bad_arity():
    assert _parse_error("vertex\n").line == 1
    assert _parse_error("vertex a b\n").line == 1
    assert _parse_error("edge e a\n").line == 1
    assert _parse_error("vertex a\nedges a a\n").line == 2


def test_bad_count():
    for bad in ("0", "-1", "x", "1.5", "1_0", "+2", "\uff13", "1" * 5000):
        err = _parse_error(f"vertex a\nedges a a {bad}\n")
        assert err.line == 2
        assert "count" in err.message


def test_huge_edge_count_is_refused_before_allocating():
    tracemalloc.start()
    try:
        err = _parse_error(f"vertex a\nvertex b\nedges a b {10**9}\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.line == 3
    assert err.message == f"edges lines ask for more than {MAX_COUNTED_EDGES} edges in all"
    assert peak < 1 << 20


def test_edge_count_cap_is_a_running_total(monkeypatch):
    monkeypatch.setattr(gtf, "MAX_COUNTED_EDGES", 5)
    ok = "vertex a\nvertex b\nedges a a 3\nedge e a b\nedges a b 2\n"
    assert len(parse_gtf(ok).edges) == 6  # single `edge` lines do not count
    err = _parse_error(ok + "edges b a 1\n")
    assert err.line == 6
    assert "more than 5 edges" in err.message


def test_bad_token():
    err = _parse_error("vertex a-b\n")
    assert err.line == 1
    err = _parse_error("vertex a\nedge e! a a\n")
    assert err.line == 2


def test_dangling_endpoint():
    with pytest.raises(DanglingEndpoint):
        parse_gtf("vertex a\nedge e a b\n")
    with pytest.raises(DanglingEndpoint):
        parse_gtf("vertex a\nedges a b 1\n")


def test_duplicate_declarations():
    with pytest.raises(DuplicateVertex):
        parse_gtf("vertex a\nvertex a\n")
    with pytest.raises(DuplicateEdge):
        parse_gtf("vertex a\nedge e a a\nedge e a a\n")
    with pytest.raises(DuplicateEdge):
        # explicit id colliding with a generated one
        parse_gtf("vertex a\nedge a__a__1 a a\nedges a a 1\n")
