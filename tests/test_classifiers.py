import itertools

import pytest

import families
from leavitt_ibn import (
    RULE_ISOLATED_VERTEX,
    RULE_SOURCE_CYCLE,
    SufficiencyResult,
    build_graph,
    classify_sufficient,
    cycle_properties,
    decide_ibn,
    source_free_form,
)
from leavitt_ibn.errors import EmptyGraph


def two_cycle():
    return build_graph(["v1", "v2"], [("a", "v1", "v2"), ("b", "v2", "v1")])


# ── individual rules ─────────────────────────────────────────────────


def test_isolated_vertex_rule_on_path():
    res = classify_sufficient(families.a_path(3))
    assert res.rule == RULE_ISOLATED_VERTEX
    assert (res.isolated_vertex, res.elimination_stage) == ("v3", 2)


def test_isolated_vertex_rule_immediate(triv):
    res = classify_sufficient(triv)
    assert res.rule == RULE_ISOLATED_VERTEX
    assert (res.isolated_vertex, res.elimination_stage) == ("v", 0)


def test_isolated_beats_source_cycle():
    g = build_graph(["v", "u"], [("l", "v", "v")])
    res = classify_sufficient(g)
    assert res.rule == RULE_ISOLATED_VERTEX
    assert (res.isolated_vertex, res.elimination_stage) == ("u", 0)


def test_source_cycle_rule_on_single_loop():
    res = classify_sufficient(families.rose(1))
    assert res.rule == RULE_SOURCE_CYCLE
    assert res.source_cycle == ("l1",)


def test_source_cycle_rule_on_two_cycle():
    res = classify_sufficient(two_cycle())
    assert res.rule == RULE_SOURCE_CYCLE
    assert res.source_cycle == ("a", "b")


def test_source_cycle_found_after_elimination(ex33):
    # the head vertex of ex33 keeps its loop as a source cycle; attaching a
    # feeding chain must not change that because the chain gets eliminated
    from leavitt_ibn import attach_head

    g = attach_head(ex33, "v0", 2)
    res = classify_sufficient(g)
    assert res.rule == RULE_SOURCE_CYCLE
    assert res.source_cycle == ("e0",)


def test_no_rule_on_double_loop_graphs(ex26, e29, f29):
    for g in (ex26, e29, f29, families.rose(2)):
        assert classify_sufficient(g).rule is None


def test_classifier_is_not_necessary(f29):
    # the pinned gap: a graph whose algebra has IBN but no rule fires
    assert classify_sufficient(f29).rule is None
    assert decide_ibn(f29, with_witness=False).has_ibn is True


def test_empty_graph_rejected():
    with pytest.raises(EmptyGraph):
        classify_sufficient(build_graph([], []))


def _enumerated_classification(g):
    # oracle: a rebuild loop for the source-free form and a scan of every
    # simple cycle
    sf, _, isolated_seen, first_isolated = families.rebuilt_source_free_form(g)
    if isolated_seen:
        v, stage = first_isolated
        return SufficiencyResult(
            RULE_ISOLATED_VERTEX, isolated_vertex=v, elimination_stage=stage
        )
    cycle = families.enumerated_first_source_cycle(sf)
    if cycle is not None:
        return SufficiencyResult(RULE_SOURCE_CYCLE, source_cycle=cycle)
    return SufficiencyResult(None)


def test_classify_matches_enumeration_oracle():
    for g in families.peel_parity_graphs():
        assert classify_sufficient(g) == _enumerated_classification(g)


# ── global properties ────────────────────────────────────────────────


def test_rules_are_sound():
    graphs = itertools.chain(
        families.all_graphs(max_vertices=2, max_parallel=2),
        families.random_graphs(300, seed=families.RANDOM_GRAPH_SEED + 14),
    )
    for g in graphs:
        res = classify_sufficient(g)
        if res.rule is not None:
            assert decide_ibn(g, with_witness=False).has_ibn is True


def test_evidence_matches_rule():
    for g in families.random_graphs(200, seed=families.RANDOM_GRAPH_SEED + 15):
        res = classify_sufficient(g)
        if res.rule == RULE_ISOLATED_VERTEX:
            assert g.has_vertex(res.isolated_vertex)
            assert res.elimination_stage >= 0
        elif res.rule == RULE_SOURCE_CYCLE:
            sf = source_free_form(g).result
            assert cycle_properties(sf, res.source_cycle).is_source_cycle


def _cycles_pairwise_disjoint(g):
    # oracle: vertex sets of the recursively enumerated cycles
    edge_src = {e.id: e.src for e in g.edges}
    verts = [
        frozenset(edge_src[eid] for eid in c) for c in families.recursive_simple_cycles(g)
    ]
    return all(a.isdisjoint(b) for a, b in itertools.combinations(verts, 2))


def test_disjoint_cycles_rule_is_shadowed():
    # pairwise-disjoint cycles needs no rule of its own: without an isolated
    # vertex, a top strongly connected component of the source-free form
    # is a single cycle of in-degree-1 vertices, a source cycle
    graphs = itertools.chain(
        families.all_graphs(max_vertices=3, max_parallel=2),
        families.random_graphs(400, seed=families.RANDOM_GRAPH_SEED + 16),
    )
    checked = 0
    for g in graphs:
        if _cycles_pairwise_disjoint(g):
            checked += 1
            assert classify_sufficient(g).rule is not None
    assert checked >= 999  # the <= 3-vertex graphs alone give 999
