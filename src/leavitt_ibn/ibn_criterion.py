"""The rank criterion for Invariant Basis Number, with checkable witnesses.

The algebra of a finite graph has IBN exactly when the all-ones column is
NOT in the column span of M = A^t - J (ranks differ).  When ranks agree,
the failure is constructive: an integer solution of M x = d * b converts
into two rewrite schedules from m * sum(V) and n * sum(V), m != n, landing
on the same monoid element.  The witness stores both schedules so that
verification is a pure replay, independent of how it was built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Optional

from .errors import (
    InsufficientCoefficient,
    MalformedWitness,
    NotApplicable,
    NotRegular,
    WitnessConstructionFailed,
)
from .exact_linalg import (
    CriterionSystem,
    augmented_ranks,
    criterion_system,
    solve_augmented,
    solve_particular,
)
from .graph_core import Graph
from .graph_monoid import (
    MonoidVector,
    RewriteTrace,
    _fire,
    _moves,
    execute_counts,
    replay_trace,
    uniform_vector,
)


@dataclass(frozen=True)
class Witness:
    """Certificate that the algebra lacks IBN: replaying sigma from
    m * sum(V) and sigma_prime from n * sum(V) must reach gamma."""

    m: int
    n: int
    d: int  # m - n, the scaling that made the solution integral
    m_vec: dict[str, int]  # integer solution on regular vertices
    k: dict[str, int]  # application counts for the m side
    k_prime: dict[str, int]  # application counts for the n side
    sigma: RewriteTrace
    sigma_prime: RewriteTrace
    gamma: MonoidVector


@dataclass(frozen=True)
class IbnVerdict:
    has_ibn: bool
    rank_m: int
    rank_aug: int
    witness: Optional[Witness]


def ibn_ranks(g: Graph) -> tuple[int, int]:
    """(rank M, rank [M | b]) over the canonical order."""
    system = criterion_system(g)
    return augmented_ranks(system.matrix, system.rhs)


def decide_ibn(g: Graph) -> IbnVerdict:
    """Decide IBN; on a negative verdict also construct and replay-verify a
    witness.  The ranks and the particular solution behind the witness
    come from one elimination."""
    system = criterion_system(g)
    rank_m, rank_aug, x = solve_augmented(system.matrix, system.rhs)
    has_ibn = x is None
    witness = None
    if not has_ibn:
        witness = _witness_from_solution(g, system, x)
        if not verify_witness(g, witness):
            raise WitnessConstructionFailed(
                "constructed witness failed replay verification"
            )
    return IbnVerdict(has_ibn, rank_m, rank_aug, witness)


def construct_witness(g: Graph) -> Witness:
    """Build the non-IBN witness of the particular solution."""
    system = criterion_system(g)
    x = solve_particular(system.matrix, system.rhs)
    if x is None:
        raise NotApplicable("graph algebra has IBN; no witness exists")
    return _witness_from_solution(g, system, x)


def _witness_from_solution(
    g: Graph, system: CriterionSystem, x: tuple[Fraction, ...]
) -> Witness:
    """The witness of the particular solution x of the criterion system,
    scaled by the lcm of its denominators."""
    z = system.z
    assert all(x[i] == 0 for i in range(z, len(x)))  # sinks are free, set 0

    d = lcm(*(xi.denominator for xi in x[:z]))
    regular = system.order[:z]
    m_ints = [int(xi * d) for xi in x[:z]]
    m_vec = dict(zip(regular, m_ints))
    # M (d x) == d * b in integers, in O(V + E): column v of M is one
    # firing at v, so m_v firings at every v raise each vertex by d
    moves = _moves(g)
    net = [0] * len(g.vertices)
    for v, mv in m_vec.items():
        _fire(net, moves[v], mv)
    assert net == [d] * len(net)
    k = {v: max(-mi, 0) for v, mi in m_vec.items()}
    k_prime = {v: max(mi, 0) for v, mi in m_vec.items()}

    # With n = max|m_v| every vertex starts with at least k_v (or k'_v)
    # tokens and a firing lowers only its own coordinate, so neither
    # round-robin sticks: execute_counts takes its closed form from the
    # first sweep, and replay_trace's count certificate holds.  The ends
    # m*1 + M k and n*1 + M k' differ by d*1 - M m_vec = 0.
    n = max(1, max(abs(mi) for mi in m_ints))
    m = n + d
    got_m = execute_counts(g, uniform_vector(g, m), k)
    got_n = execute_counts(g, uniform_vector(g, n), k_prime)
    assert got_m is not None and got_n is not None and got_m[0] == got_n[0]
    return Witness(
        m=m,
        n=n,
        d=d,
        m_vec=m_vec,
        k=k,
        k_prime=k_prime,
        sigma=got_m[1],
        sigma_prime=got_n[1],
        gamma=got_m[0],
    )


def verify_witness(g: Graph, w: Witness) -> bool:
    """Pure replay check.  Raises MalformedWitness if the witness mentions
    vertices the graph lacks; otherwise True iff m > n >= 1 and both traces
    replay legally (coefficients never go negative) to the same element,
    which must be w.gamma."""
    names = g.index
    for where, vs in (
        ("", chain(w.m_vec, w.k, w.k_prime)),
        # each distinct name once, in order of first appearance
        (" in trace", dict.fromkeys(chain(w.sigma.steps, w.sigma_prime.steps))),
        (" in gamma", w.gamma.to_dict()),
    ):
        for v in vs:
            if v not in names:
                raise MalformedWitness(f"unknown vertex {v}{where}")
    if w.n < 1 or w.m <= w.n:
        return False
    try:
        end_m = replay_trace(g, uniform_vector(g, w.m), w.sigma)
        end_n = replay_trace(g, uniform_vector(g, w.n), w.sigma_prime)
    except (NotRegular, InsufficientCoefficient):
        return False
    return end_m == end_n == w.gamma
