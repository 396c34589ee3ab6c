"""Acceptance gate: the package-level claims, each checked exhaustively or
at its stated sample size, zero tolerance unless noted.  Every test emits
one `[acceptance NN] <label>: PASS|FAIL` line, shown in the terminal
summary section, so the gate is auditable from captured logs.
"""

import itertools
import random

import pytest

import conftest
import families
from leavitt_ibn import (
    MonoidVector,
    SearchBudget,
    attach_head,
    attach_star,
    augmented_ranks,
    cohn_cover,
    construct_witness,
    criterion_system,
    decide_ibn,
    enumerate_simple_cycles,
    hereditary_collapse,
    ibn_refute_search,
    rank,
    IntMatrix,
    regular_vertices,
    replay_trace,
    source_eliminate,
    source_free_equivalent,
    source_free_form,
    subdivide_edge,
    uniform_vector,
    verify_witness,
)
from leavitt_ibn.classifiers import classify_sufficient


def _report(num: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    conftest.ACCEPTANCE_LINES.append(f"[acceptance {num:02d}] {label}: {status}")
    assert not failures, f"{len(failures)} failure(s), first: {failures[0]}"


@pytest.fixture(scope="module")
def exhaustive():
    # every graph with <= 3 vertices and <= 2 parallel edges per ordered
    # pair: 3 + 3^4 + 3^9 = 19767 graphs
    graphs = list(families.all_graphs(max_vertices=3, max_parallel=2))
    assert len(graphs) == 19767
    return graphs


@pytest.fixture(scope="module")
def random200():
    return list(families.random_graphs(200, max_vertices=6, max_edges=12))


_RANK_CACHE: dict = {}


def _ranks(g):
    """(rank M, rank [M | b]) with a cache keyed on the criterion system;
    transformed graphs repeat matrices heavily across the family."""
    system = criterion_system(g)
    key = (system.z, system.matrix.entries)
    got = _RANK_CACHE.get(key)
    if got is None:
        got = augmented_ranks(system.matrix, system.rhs)
        _RANK_CACHE[key] = got
    return got


def _has_ibn(g) -> bool:
    rank_m, rank_aug = _ranks(g)
    return rank_m < rank_aug


def test_criterion_01_double_loop_chain_end_to_end():
    failures = []
    g = families.ex26()
    v = decide_ibn(g)
    if (v.has_ibn, v.rank_m, v.rank_aug) != (False, 2, 2):
        failures.append(f"verdict {(v.has_ibn, v.rank_m, v.rank_aug)}")
    w = v.witness
    if (w.d, w.n, w.m) != (1, 1, 2):
        failures.append(f"(d, n, m) = {(w.d, w.n, w.m)}")
    if (w.m_vec.get("v1"), w.m_vec.get("v2")) != (1, 1):
        failures.append(f"m_vec = {w.m_vec}")
    if not verify_witness(g, w):
        failures.append("verify_witness rejected the witness")
    gamma = MonoidVector({"v1": 2, "v2": 2, "v3": 2})
    if w.gamma != gamma:
        failures.append(f"gamma = {w.gamma.to_dict()}")
    if replay_trace(g, uniform_vector(g, w.m), w.sigma) != gamma:
        failures.append("sigma replay missed gamma")
    if replay_trace(g, uniform_vector(g, w.n), w.sigma_prime) != gamma:
        failures.append("sigma_prime replay missed gamma")
    _report(1, "double-loop chain end-to-end", failures)


def test_criterion_02_source_elimination_flips_the_verdict():
    failures = []
    e, f = families.e29(), families.f29()
    ve, vf = decide_ibn(e), decide_ibn(f)
    if (ve.has_ibn, ve.rank_m, ve.rank_aug) != (False, 3, 3):
        failures.append(f"headed graph: {(ve.has_ibn, ve.rank_m, ve.rank_aug)}")
    if (vf.has_ibn, vf.rank_m, vf.rank_aug) != (True, 2, 3):
        failures.append(f"eliminated graph: {(vf.has_ibn, vf.rank_m, vf.rank_aug)}")
    if source_eliminate(e, "v0") != f:
        failures.append("source_eliminate(E, v0) != F")
    _report(2, "source elimination flips the verdict", failures)


def test_criterion_03_cover_has_ibn_with_gap(exhaustive, random200):
    failures = []
    for g in itertools.chain(exhaustive, random200):
        z = len(regular_vertices(g))
        got = _ranks(cohn_cover(g))
        if got != (z, z + 1):
            failures.append(f"{g!r}: ranks {got}, z = {z}")
            if len(failures) > 3:
                break
    _report(3, "sink-copy cover has IBN with ranks (z, z+1)", failures)


def test_criterion_04_negative_verdicts_carry_witnesses(exhaustive, random200):
    failures = []
    for g in itertools.chain(exhaustive, random200):
        verdict = decide_ibn(g)
        if verdict.has_ibn:
            continue
        if verdict.witness is None or not verify_witness(g, verdict.witness):
            failures.append(f"{g!r}")
            if len(failures) > 3:
                break
    _report(4, "every negative verdict carries a replayable witness", failures)


def _iso_class_key(g):
    """Incidence counts canonicalized over all vertex relabelings."""
    h = len(g.vertices)
    idx = g.index
    counts = [[0] * h for _ in range(h)]
    for e in g.edges:
        counts[idx[e.src]][idx[e.dst]] += 1
    return (
        h,
        min(
            tuple(counts[p[i]][p[j]] for i in range(h) for j in range(h))
            for p in itertools.permutations(range(h))
        ),
    )


def test_criterion_05_oracle_finds_nothing_when_ibn_holds(exhaustive):
    # The refutation search on uniform multiples is invariant under vertex
    # relabeling (uniform starts and closures relabel along), so one search
    # per isomorphism class covers the family.
    failures = []
    budget = SearchBudget(max_states=100_000)
    seen: set = set()
    searched = 0
    for g in exhaustive:
        if not _has_ibn(g):
            continue
        key = _iso_class_key(g)
        if key in seen:
            continue
        seen.add(key)
        searched += 1
        res = ibn_refute_search(g, max_mn=4, budget=budget)
        if res is not None:
            failures.append(f"{g!r}: found {res.m}*sum = {res.n}*sum")
            if len(failures) > 3:
                break
    if searched < 100:
        failures.append(f"only {searched} classes searched; family looks wrong")
    _report(5, "monoid search finds nothing when IBN holds", failures)


def test_criterion_06_move_invariance(exhaustive):
    failures = []
    for g in exhaustive:
        base = _has_ibn(g)
        for n in (1, 2, 3):
            for v0 in g.vertices:
                head = _has_ibn(attach_head(g, v0, n))
                star = _has_ibn(attach_star(g, v0, n))
                if head != star:
                    failures.append(f"{g!r}: head/star differ at {v0}, n={n}")
            for e in g.edges:
                sub = _has_ibn(subdivide_edge(g, e.id, n))
                head = _has_ibn(attach_head(g, e.dst, n))
                if sub != head:
                    failures.append(f"{g!r}: subdivide/head differ at {e.id}, n={n}")
        for hset in families.valid_hereditary_sets(g):
            if _has_ibn(hereditary_collapse(g, hset)) != base:
                failures.append(f"{g!r}: collapse onto {sorted(hset)} flipped")
        if len(failures) > 3:
            break
    _report(6, "verdict equality across head/star/subdivide/collapse moves", failures)


def _exit_free_cycles(g) -> int:
    return sum(
        1 for c in enumerate_simple_cycles(g) if not families.cycle_has_exit(g, c)
    )


def _source_cycles(g) -> int:
    return sum(
        1 for c in enumerate_simple_cycles(g) if families.is_source_cycle(g, c)
    )


def test_criterion_07_source_free_equivalent(exhaustive):
    failures = []
    for g in exhaustive:
        report = source_free_form(g)
        if report.isolated_seen:
            continue
        equivalent = source_free_equivalent(g)
        problems = []
        if equivalent is None:
            problems.append("returned None without an isolated vertex")
        else:
            if any(equivalent.in_degree(v) == 0 for v in equivalent.vertices):
                problems.append("result is not source-free")
            if _has_ibn(equivalent) != _has_ibn(g):
                problems.append("verdict changed")
            if _exit_free_cycles(equivalent) != _exit_free_cycles(g):
                problems.append("exit-free cycle count changed")
            if _source_cycles(equivalent) != _source_cycles(report.result):
                problems.append("source cycle count differs from source-free form")
        if problems:
            failures.append(f"{g!r}: {problems}")
            if len(failures) > 3:
                break
    _report(7, "source-free equivalent keeps verdict and cycle counts", failures)


def test_criterion_08_classifier_sound_and_incomplete(exhaustive, random200):
    failures = []
    for g in itertools.chain(exhaustive, random200):
        result = classify_sufficient(g)
        if result.rule is not None and not _has_ibn(g):
            failures.append(f"{g!r}: rule {result.rule} on a non-IBN graph")
            if len(failures) > 3:
                break
    # pinned incompleteness: a graph whose algebra has IBN with no rule
    pinned = families.f29()
    if classify_sufficient(pinned).rule is not None or not _has_ibn(pinned):
        failures.append("pinned rule-free IBN graph no longer demonstrates the gap")
    _report(8, "sufficient rules are sound and provably incomplete", failures)


def test_criterion_09_rose_ladder():
    failures = []
    if not decide_ibn(families.rose(1)).has_ibn:
        failures.append("single loop should have IBN")
    for n in (2, 3, 4, 5):
        g = families.rose(n)
        v = decide_ibn(g)
        if v.has_ibn:
            failures.append(f"{n} loops should lack IBN")
            continue
        if not verify_witness(g, v.witness):
            failures.append(f"witness for {n} loops failed verification")
    w2 = construct_witness(families.rose(2))
    if (w2.m, w2.n) != (2, 1):
        failures.append(f"two-loop witness (m, n) = {(w2.m, w2.n)}")
    res = ibn_refute_search(families.rose(2))
    if res is None or (res.m, res.n) != (2, 1):
        failures.append(f"oracle cross-check returned {res}")
    _report(9, "rose ladder: one loop keeps IBN, more break it", failures)


def test_criterion_10_rank_against_rational_elimination():
    failures = []
    rng = random.Random(families.RANDOM_MATRIX_SEED)
    for i in range(1000):
        rows = families.random_int_matrix(rng, max_dim=8, lo=-5, hi=5)
        got = rank(IntMatrix.from_rows(rows))
        want = families.rational_elimination_rank(rows)
        if got != want:
            failures.append(f"matrix {i}: fraction-free {got}, rational {want}")
            if len(failures) > 3:
                break
    _report(10, "fraction-free rank matches rational elimination on 1000 matrices", failures)
