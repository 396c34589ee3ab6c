import dataclasses

import pytest

import families
from leavitt_ibn import (
    MonoidVector,
    RewriteTrace,
    build_graph,
    construct_witness,
    decide_ibn,
    ibn_ranks,
    verify_witness,
)
from leavitt_ibn.errors import EmptyGraph, MalformedWitness, NotApplicable


# ── frozen verdicts ──────────────────────────────────────────────────


def test_two_loop_chain_lacks_ibn(ex26):
    v = decide_ibn(ex26)
    assert (v.has_ibn, v.rank_m, v.rank_aug) == (False, 2, 2)
    w = v.witness
    assert (w.m, w.n, w.d) == (2, 1, 1)
    assert w.m_vec == {"v1": 1, "v2": 1}
    assert w.k == {"v1": 0, "v2": 0}
    assert w.k_prime == {"v1": 1, "v2": 1}
    assert w.sigma.steps == ()
    assert w.sigma_prime.steps == ("v1", "v2")
    assert w.gamma == MonoidVector({"v1": 2, "v2": 2, "v3": 2})
    assert verify_witness(ex26, w)


def test_single_vertex_has_ibn(triv):
    v = decide_ibn(triv)
    assert (v.has_ibn, v.rank_m, v.rank_aug, v.witness) == (True, 0, 1, None)


def test_headed_chain_gains_ibn(e29, f29):
    ve = decide_ibn(e29)
    assert (ve.has_ibn, ve.rank_m, ve.rank_aug) == (False, 3, 3)
    assert ve.witness.m_vec == {"v0": -1, "v1": 2, "v2": 1}
    assert (ve.witness.m, ve.witness.n) == (3, 2)
    vf = decide_ibn(f29)
    assert (vf.has_ibn, vf.rank_m, vf.rank_aug, vf.witness) == (True, 2, 3, None)


def test_rose_ladder():
    assert decide_ibn(families.rose(1)).has_ibn is True
    v2 = decide_ibn(families.rose(2))
    assert v2.has_ibn is False
    assert (v2.witness.m, v2.witness.n, v2.witness.d) == (2, 1, 1)
    v3 = decide_ibn(families.rose(3))
    assert v3.has_ibn is False
    # solution 1/2 forces the doubling scale
    assert (v3.witness.m, v3.witness.n, v3.witness.d) == (3, 1, 2)
    assert v3.witness.m_vec == {"v": 1}
    assert v3.witness.gamma == MonoidVector({"v": 3})


def test_path_has_ibn():
    v = decide_ibn(families.a_path(3))
    assert v.has_ibn is True
    assert v.witness is None


def test_ranks_helper(ex26, f29):
    assert ibn_ranks(ex26) == (2, 2)
    assert ibn_ranks(f29) == (2, 3)


def test_empty_graph_rejected():
    with pytest.raises(EmptyGraph):
        decide_ibn(build_graph([], []))


# ── witness construction ─────────────────────────────────────────────


def test_construct_witness_not_applicable_on_ibn_graphs(f29):
    with pytest.raises(NotApplicable):
        construct_witness(f29)
    with pytest.raises(NotApplicable):
        construct_witness(families.rose(1))


# ── witness verification is adversarial ──────────────────────────────


def test_verify_rejects_equal_multiplicities(ex26):
    w = construct_witness(ex26)
    assert verify_witness(ex26, dataclasses.replace(w, m=w.n)) is False
    assert verify_witness(ex26, dataclasses.replace(w, n=0, m=0)) is False


def test_verify_rejects_wrong_gamma(ex26):
    w = construct_witness(ex26)
    bad = dataclasses.replace(w, gamma=MonoidVector({"v1": 99}))
    assert verify_witness(ex26, bad) is False


def test_verify_rejects_illegal_trace(ex26):
    w = construct_witness(ex26)
    # v3 is a sink, so a step there can never be legal
    bad = dataclasses.replace(w, sigma=RewriteTrace(("v3",)))
    assert verify_witness(ex26, bad) is False


def test_verify_rejects_diverging_trace(ex26):
    w = construct_witness(ex26)
    longer = RewriteTrace(w.sigma_prime.steps + ("v1",))
    assert verify_witness(ex26, dataclasses.replace(w, sigma_prime=longer)) is False


def test_verify_raises_on_unknown_vertices(ex26):
    w = construct_witness(ex26)
    with pytest.raises(MalformedWitness):
        verify_witness(ex26, dataclasses.replace(w, k={"zzz": 1}))
    with pytest.raises(MalformedWitness):
        verify_witness(ex26, dataclasses.replace(w, sigma=RewriteTrace(("zzz",))))
    with pytest.raises(MalformedWitness):
        verify_witness(ex26, dataclasses.replace(w, gamma=MonoidVector({"zzz": 1})))
    # a witness for one graph is malformed for another
    with pytest.raises(MalformedWitness):
        verify_witness(families.rose(2), w)


# ── one elimination per decision ─────────────────────────────────────


@pytest.mark.parametrize("name", ["f29", "ex26", "e29"])
def test_decide_eliminates_once(name, monkeypatch):
    import leavitt_ibn.exact_linalg as exact_linalg

    original = exact_linalg._fraction_free_pivot_cols
    calls = []

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(exact_linalg, "_fraction_free_pivot_cols", counting)
    decide_ibn(getattr(families, name)())
    assert len(calls) == 1


def test_decide_witness_is_construct_witness():
    count = 0
    for g in families.all_graphs(max_vertices=2, max_parallel=2):
        v = decide_ibn(g)
        if not v.has_ibn:
            assert v.witness == construct_witness(g)
            count += 1
    assert count > 0


# ── properties over graph families ───────────────────────────────────


def _check(g):
    v = decide_ibn(g)
    assert v.rank_aug - v.rank_m in (0, 1)
    assert v.has_ibn == (v.rank_m < v.rank_aug)
    if v.has_ibn:
        assert v.witness is None
    else:
        assert verify_witness(g, v.witness)


def test_exhaustive_small_family():
    count = 0
    for g in families.all_graphs(max_vertices=2, max_parallel=2):
        _check(g)
        count += 1
    assert count == 3 + 3**4  # one- plus two-vertex graphs


def test_random_family():
    for g in families.random_graphs(500, max_vertices=6, max_edges=12):
        _check(g)


def test_vertex_order_invariance(ex26):
    reordered = build_graph(("v2", "v3", "v1"), [(e.id, e.src, e.dst) for e in ex26.edges])
    a, b = decide_ibn(ex26), decide_ibn(reordered)
    assert (a.has_ibn, a.rank_m, a.rank_aug) == (b.has_ibn, b.rank_m, b.rank_aug)
    assert verify_witness(reordered, b.witness)
