import random

import pytest

import families
from leavitt_ibn import (
    attach_head,
    attach_star,
    build_graph,
    cohn_cover,
    decide_ibn,
    hereditary_collapse,
    ibn_ranks,
    regular_vertices,
    source_eliminate,
    source_free_equivalent,
    source_free_form,
    subdivide_edge,
)
from leavitt_ibn.errors import (
    BadCount,
    CollapseTooLarge,
    ComplementHasCycle,
    DuplicateVertex,
    EmptyGraph,
    NotASource,
    NotHereditary,
    UnknownEdge,
    UnknownVertex,
    WouldEmptyGraph,
)
from leavitt_ibn import transforms
from leavitt_ibn.transforms import MAX_COLLAPSE_PATH_IDS, _crossing_paths


def _edge_tuples(g):
    return [(e.id, e.src, e.dst) for e in g.edges]


# ── source elimination ───────────────────────────────────────────────


def test_source_eliminate_matches_fixture(e29, f29):
    assert source_eliminate(e29, "v0") == f29


def test_source_eliminate_errors(e29, triv):
    with pytest.raises(NotASource):
        source_eliminate(e29, "v1")
    with pytest.raises(UnknownVertex):
        source_eliminate(e29, "nope")
    with pytest.raises(WouldEmptyGraph):
        source_eliminate(triv, "v")


def test_source_eliminate_isolated_vertex():
    g = build_graph(["u", "v"], [("l", "v", "v")])
    assert source_eliminate(g, "u") == build_graph(["v"], [("l", "v", "v")])


def test_source_free_form_path():
    rep = source_free_form(families.a_path(3))
    assert rep.result.vertices == ("v3",)
    assert rep.eliminated == ("v1", "v2")
    assert rep.isolated_seen is True
    assert rep.first_isolated == ("v3", 2)


def test_source_free_form_fixed_point(ex26):
    rep = source_free_form(ex26)
    assert rep.result == ex26
    assert rep.eliminated == ()
    assert rep.isolated_seen is False
    assert rep.first_isolated is None


def test_source_free_form_single_step(e29, f29):
    rep = source_free_form(e29)
    assert rep.result == f29
    assert rep.eliminated == ("v0",)
    assert rep.isolated_seen is False


def test_source_free_form_isolated_input(triv):
    rep = source_free_form(triv)
    assert rep.result == triv
    assert rep.first_isolated == ("v", 0)


def test_source_free_form_empty_graph():
    with pytest.raises(EmptyGraph):
        source_free_form(build_graph([], []))


def test_source_free_form_order_confluence():
    # eliminating sources in any order must strand the same vertex set,
    # except when the whole graph dismantles: then a single vertex is kept
    # and which one depends on the order
    def randomized(g, rng):
        current = g
        while len(current.vertices) > 1:
            sources = [v for v in current.vertices if current.in_degree(v) == 0]
            if not sources:
                break
            current = source_eliminate(current, rng.choice(sources))
        return current

    def dismantled(g):
        return len(g.vertices) == 1 and g.in_degree(g.vertices[0]) == 0

    rng = random.Random(families.RANDOM_GRAPH_SEED + 7)
    for g in families.random_graphs(80, seed=families.RANDOM_GRAPH_SEED + 8):
        expected = source_free_form(g).result
        for _ in range(3):
            got = randomized(g, rng)
            if dismantled(expected):
                assert dismantled(got)
            else:
                assert set(got.vertices) == set(expected.vertices)


def test_source_free_form_matches_rebuild_oracle():
    for g in families.peel_parity_graphs():
        rep = source_free_form(g)
        got = (rep.result, rep.eliminated, rep.isolated_seen, rep.first_isolated)
        assert got == families.rebuilt_source_free_form(g)


def test_source_free_form_builds_one_graph(monkeypatch):
    import leavitt_ibn.transforms as transforms

    calls = []

    def counting_build_graph(*args):
        calls.append(1)
        return build_graph(*args)

    monkeypatch.setattr(transforms, "build_graph", counting_build_graph)
    rep = source_free_form(families.a_path(3000))
    assert rep.result.vertices == ("v3000",)
    assert len(rep.eliminated) == 2999
    assert rep.first_isolated == ("v3000", 2999)
    assert len(calls) == 1


# ── the sink-copy cover ──────────────────────────────────────────────


def test_cohn_cover_structure(ex26):
    got = cohn_cover(ex26)
    assert got.vertices == ("v1", "v2", "v3", "v1__prime", "v2__prime")
    assert _edge_tuples(got) == [
        ("l1", "v1", "v1"),
        ("l2", "v1", "v1"),
        ("e", "v1", "v2"),
        ("f", "v2", "v2"),
        ("g", "v2", "v3"),
        ("l1__prime", "v1", "v1__prime"),
        ("l2__prime", "v1", "v1__prime"),
        ("e__prime", "v1", "v2__prime"),
        ("f__prime", "v2", "v2__prime"),
    ]
    assert ibn_ranks(got) == (2, 3)


def test_cohn_cover_of_sink_only_graph(triv):
    assert cohn_cover(triv) == triv


def test_cohn_cover_always_has_ibn(ex26, e29, ex33, ex36):
    samples = [ex26, e29, ex33, ex36, families.rose(4)]
    samples += list(families.random_graphs(30, seed=families.RANDOM_GRAPH_SEED + 9))
    for g in samples:
        z = len(regular_vertices(g))
        cover = cohn_cover(g)
        v = decide_ibn(cover)
        assert v.has_ibn is True
        assert (v.rank_m, v.rank_aug) == (z, z + 1)


# ── local attachments ────────────────────────────────────────────────


def test_attach_head_structure(ex33):
    got = attach_head(ex33, "v0", 2)
    assert got.vertices == ("v0", "v", "v0__h1", "v0__h2")
    assert _edge_tuples(got) == [
        ("e0", "v0", "v0"),
        ("e", "v0", "v"),
        ("v0__he1", "v0__h1", "v0"),
        ("v0__he2", "v0__h2", "v0__h1"),
    ]


def test_attach_star_structure(ex33):
    got = attach_star(ex33, "v0", 2)
    assert got.vertices == ("v0", "v", "v0__s1", "v0__s2")
    assert _edge_tuples(got) == [
        ("e0", "v0", "v0"),
        ("e", "v0", "v"),
        ("v0__se1", "v0__s1", "v0"),
        ("v0__se2", "v0__s2", "v0"),
    ]


def test_subdivide_edge_structure(ex33):
    got = subdivide_edge(ex33, "e0", 2)
    assert got.vertices == ("v0", "v", "e0__v1", "e0__v2")
    assert _edge_tuples(got) == [
        ("e", "v0", "v"),
        ("e0__e1", "e0__v1", "v0"),
        ("e0__e2", "e0__v2", "e0__v1"),
        ("e0__e3", "v0", "e0__v2"),
    ]


def test_attachment_errors(ex33):
    for n in (0, -1, True, "2", 1.5):
        with pytest.raises(BadCount):
            attach_head(ex33, "v0", n)
        with pytest.raises(BadCount):
            attach_star(ex33, "v0", n)
        with pytest.raises(BadCount):
            subdivide_edge(ex33, "e0", n)
    with pytest.raises(UnknownVertex):
        attach_head(ex33, "nope", 1)
    with pytest.raises(UnknownVertex):
        attach_star(ex33, "nope", 1)
    with pytest.raises(UnknownEdge):
        subdivide_edge(ex33, "nope", 1)


def test_fresh_name_collision_is_loud():
    g = build_graph(["v0", "v0__h1"], [("x", "v0__h1", "v0")])
    with pytest.raises(DuplicateVertex):
        attach_head(g, "v0", 1)


def test_attachment_kinds_agree_on_verdict():
    # attaching a chain or a star of the same size at the same vertex can
    # change the verdict of g, but never differ from each other; likewise a
    # head at r(e0) agrees with subdividing e0 itself
    samples = [families.ex26(), families.e29(), families.ex33(), families.rose(3)]
    samples += list(families.random_graphs(25, seed=families.RANDOM_GRAPH_SEED + 10))
    for g in samples:
        v0 = g.vertices[0]
        for n in (1, 2):
            head = decide_ibn(attach_head(g, v0, n), with_witness=False).has_ibn
            star = decide_ibn(attach_star(g, v0, n), with_witness=False).has_ibn
            assert head == star
        if g.edges:
            e0 = g.edges[0]
            sub = decide_ibn(subdivide_edge(g, e0.id, 2), with_witness=False).has_ibn
            head = decide_ibn(attach_head(g, e0.dst, 2), with_witness=False).has_ibn
            assert sub == head


def test_attachments_can_flip_the_verdict(e29, f29):
    # the canonical example: a fresh head turns a graph with IBN into one
    # without, so attachment moves are not verdict-preserving in general
    assert decide_ibn(f29, with_witness=False).has_ibn is True
    headed = attach_head(f29, "v1", 1)
    assert decide_ibn(headed, with_witness=False).has_ibn is False
    assert decide_ibn(e29, with_witness=False).has_ibn is False


# ── hereditary collapse ──────────────────────────────────────────────


def test_hereditary_collapse_intree(ex36):
    got = hereditary_collapse(ex36, ["v0", "v"])
    assert got.vertices == ("v0", "v", "e1", "e2_e1", "e3_e1")
    assert _edge_tuples(got) == [
        ("e0", "v0", "v0"),
        ("e", "v0", "v"),
        ("e1__in", "e1", "v0"),
        ("e2_e1__in", "e2_e1", "v0"),
        ("e3_e1__in", "e3_e1", "v0"),
    ]


def test_hereditary_collapse_whole_graph_is_identity(ex26, ex36):
    for g in (ex26, ex36):
        assert hereditary_collapse(g, g.vertices) == g


def test_hereditary_collapse_errors(ex26, ex36):
    with pytest.raises(ComplementHasCycle):
        hereditary_collapse(ex26, ["v2", "v3"])
    with pytest.raises(NotHereditary):
        hereditary_collapse(ex26, ["v1"])
    with pytest.raises(WouldEmptyGraph):
        hereditary_collapse(ex26, [])
    with pytest.raises(UnknownVertex):
        hereditary_collapse(ex26, ["v1", "nope"])
    with pytest.raises(ComplementHasCycle):
        # the loop at v0 sits outside {v}
        hereditary_collapse(families.ex33(), ["v"])


def test_hereditary_collapse_preserves_verdict_on_samples(ex36, e29):
    samples = [ex36, e29]
    samples += list(families.random_graphs(40, seed=families.RANDOM_GRAPH_SEED + 11, max_vertices=5, max_edges=8))
    for g in samples:
        want = decide_ibn(g, with_witness=False).has_ibn
        for h in families.valid_hereditary_sets(g):
            got = hereditary_collapse(g, h)
            assert decide_ibn(got, with_witness=False).has_ibn == want


def test_crossing_paths_match_recursive_oracle():
    for g in families.all_graphs(max_vertices=3, max_parallel=2):
        for h in families.hereditary_subsets(g):
            try:
                want = families.recursive_crossing_paths(g, h)
            except ComplementHasCycle as exc:
                with pytest.raises(ComplementHasCycle) as got:
                    _crossing_paths(g, h)
                assert str(got.value) == str(exc)
            else:
                assert _crossing_paths(g, h) == want


def test_hereditary_collapse_long_chain():
    # one fresh source per path into w; deep enough to overflow a recursive
    # walk, and within the cap
    n = 2000
    got = hereditary_collapse(families.chain_into_loop(n), ["w"])
    assert got.vertices[:2] == ("w", f"e{n}")
    assert got.vertices[-1] == "_".join(f"e{i}" for i in range(1, n + 1))
    ids = sum(v.count("_") + 1 for v in got.vertices[1:])
    assert ids == n * (n + 1) // 2 <= MAX_COLLAPSE_PATH_IDS


def test_hereditary_collapse_refuses_above_the_cap(monkeypatch):
    with pytest.raises(CollapseTooLarge):
        hereditary_collapse(families.diamonds_into_loop(16), ["w"])
    # the cap is on the total path edge ids, counted exactly
    g = families.diamonds_into_loop(6)
    ids = sum(map(len, families.recursive_crossing_paths(g, {"w"})))
    monkeypatch.setattr(transforms, "MAX_COLLAPSE_PATH_IDS", ids)
    hereditary_collapse(g, ["w"])
    monkeypatch.setattr(transforms, "MAX_COLLAPSE_PATH_IDS", ids - 1)
    with pytest.raises(CollapseTooLarge):
        hereditary_collapse(g, ["w"])


# ── the composite source-free move ───────────────────────────────────


def test_source_free_equivalent_bails_on_isolated():
    assert source_free_equivalent(families.a_path(3)) is None
    assert source_free_equivalent(families.triv()) is None


def test_source_free_equivalent_fixed_point(ex26):
    assert source_free_equivalent(ex26) is ex26


def test_source_free_equivalent_headed_chain(e29):
    got = source_free_equivalent(e29)
    assert got.vertices == ("v1", "v2", "v3", "l1__v1")
    assert _edge_tuples(got) == [
        ("l2", "v1", "v1"),
        ("b", "v1", "v2"),
        ("c", "v2", "v3"),
        ("l1__e1", "l1__v1", "v1"),
        ("l1__e2", "v1", "l1__v1"),
    ]
    assert decide_ibn(got, with_witness=False).has_ibn is False


def test_source_free_equivalent_properties():
    checked = 0
    for g in families.random_graphs(60, seed=families.RANDOM_GRAPH_SEED + 12):
        got = source_free_equivalent(g)
        if got is None:
            assert source_free_form(g).isolated_seen is True
            continue
        checked += 1
        assert all(got.in_degree(v) > 0 for v in got.vertices)
        want = decide_ibn(g, with_witness=False).has_ibn
        assert decide_ibn(got, with_witness=False).has_ibn == want
    assert checked >= 10  # the family must actually exercise the move
