"""Seeded graph families, as plain data built without the package.

A spec carries its family name, vertex names and (id, src, dst) edge
triples.  Every family draws fresh vertex names and a shuffled vertex and
edge order, so two specs of the same family and size are never equal
graphs and a cache keyed on graph content cannot hit across operations.
"""

from __future__ import annotations

import random
from typing import NamedTuple


class Spec(NamedTuple):
    family: str
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]


def _relabel(family: str, h: int, arcs: list[tuple[int, int]], rng: random.Random) -> Spec:
    names = [f"v{x}" for x in rng.sample(range(4 * h), h)]
    order = list(range(h))
    rng.shuffle(order)
    arcs = list(arcs)
    rng.shuffle(arcs)
    edges = tuple((f"e{k}", names[s], names[d]) for k, (s, d) in enumerate(arcs))
    return Spec(family, tuple(names[i] for i in order), edges)


def cycle(h: int, rng: random.Random) -> Spec:
    return _relabel("cycle", h, [(i, (i + 1) % h) for i in range(h)], rng)


def chain(h: int, rng: random.Random) -> Spec:
    return _relabel("chain", h, [(i, i + 1) for i in range(h - 1)], rng)


def random_out(h: int, lo: int, hi: int, rng: random.Random, loops: int = 0) -> Spec:
    """Each vertex gets `loops` loops plus lo..hi edges to uniform targets."""
    arcs = []
    for i in range(h):
        arcs += [(i, i)] * loops
        arcs += [(i, rng.randrange(h)) for _ in range(rng.randint(lo, hi))]
    family = "two-loops" if loops == 2 else f"random-out{lo}{hi}"
    return _relabel(family, h, arcs, rng)


def _source_free_arcs(h: int, rng: random.Random) -> list[tuple[int, int]]:
    # a random permutation gives every vertex one in-edge and one out-edge;
    # up to two more edges each keep the out-degree within 1..3
    targets = list(range(h))
    rng.shuffle(targets)
    arcs = [(i, targets[i]) for i in range(h)]
    for i in range(h):
        arcs += [(i, rng.randrange(h)) for _ in range(rng.randint(0, 2))]
    return arcs


def source_free(h: int, rng: random.Random) -> Spec:
    """No sources, out-degree 1..3."""
    return _relabel("source-free", h, _source_free_arcs(h, rng), rng)


def in_forest_core(h: int, core: int, rng: random.Random) -> Spec:
    """A source-free core of `core` vertices fed by an in-forest: every
    other vertex has one edge toward an earlier vertex, so the leaves are
    sources and every path ends in the core."""
    arcs = _source_free_arcs(core, rng)
    arcs += [(i, rng.randrange(i)) for i in range(core, h)]
    return _relabel("in-forest-core", h, arcs, rng)
