"""Independent correctness reference for the benchmark.

Nothing here imports the package.  Ranks come from a closed form (cycles
and chains) or from a sparse elimination modulo two fixed primes above
2**61; witness and oracle traces are replayed on plain lists.
"""

from __future__ import annotations

import functools
from typing import Iterable, Mapping, Optional

from graphs import Spec

PRIMES = (2**61 + 15, 2**61 + 21)


def _criterion_rows(spec: Spec) -> list[dict[int, int]]:
    """Rows of M = A^t - J: entry (dst, src) counts edges src -> dst, and
    each regular vertex has -1 on the diagonal."""
    pos = {v: i for i, v in enumerate(spec.vertices)}
    rows: list[dict[int, int]] = [{} for _ in spec.vertices]
    regular = set()
    for _, src, dst in spec.edges:
        s, d = pos[src], pos[dst]
        regular.add(s)
        rows[d][s] = rows[d].get(s, 0) + 1
    for s in regular:
        rows[s][s] = rows[s].get(s, 0) - 1
    return rows


def ranks_mod(spec: Spec, p: int) -> tuple[int, int]:
    """(rank M, rank [M | 1]) over GF(p).  Gaussian elimination on sparse
    rows: pivot on a shortest row, in its column with the fewest entries.
    The all-ones column is carried along but never pivoted on, so a
    leftover row whose M part vanished but whose right side did not adds
    one to the augmented rank."""
    rows = []
    for r in _criterion_rows(spec):
        rows.append({c: x % p for c, x in r.items() if x % p})
    rhs = [1] * len(rows)
    col_rows: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        for c in r:
            col_rows.setdefault(c, set()).add(i)
    active = {i for i, r in enumerate(rows) if r}
    rank = 0
    while active:
        r = min(active, key=lambda i: (len(rows[i]), i))
        prow = rows[r]
        c = min(prow, key=lambda j: (len(col_rows[j]), j))
        inv = pow(prow[c], p - 2, p)
        active.discard(r)
        for j in prow:
            col_rows[j].discard(r)
        for s in sorted(col_rows[c]):
            srow = rows[s]
            f = srow[c] * inv % p
            for j, x in prow.items():
                y = (srow.get(j, 0) - f * x) % p
                if y:
                    if j not in srow:
                        col_rows[j].add(s)
                    srow[j] = y
                elif j in srow:
                    del srow[j]
                    col_rows[j].discard(s)
            rhs[s] = (rhs[s] - f * rhs[r]) % p
            if not srow:
                active.discard(s)
        rank += 1
    # pivot rows keep their entries; only rows reduced to nothing are left
    leftover = any(rhs[i] for i, r in enumerate(rows) if not r)
    return rank, rank + (1 if leftover else 0)


@functools.lru_cache(maxsize=64)  # sampling by verdict computes them first
def reference_ranks(spec: Spec) -> tuple[int, int]:
    """Closed form for cycles and chains, (h - 1, h); otherwise the ranks
    modulo both primes, which must agree."""
    h = len(spec.vertices)
    if spec.family in ("cycle", "chain"):
        return h - 1, h
    got = {ranks_mod(spec, p) for p in PRIMES}
    if len(got) != 1:
        raise ArithmeticError(f"ranks differ between the reference primes: {got}")
    return got.pop()


def has_ibn(ranks: tuple[int, int]) -> bool:
    return ranks[0] < ranks[1]


def replay(spec: Spec, multiplier: int, steps: Iterable[str]) -> Optional[dict[str, int]]:
    """Apply the rewrite at each step, starting from multiplier * sum(V);
    None when a step lands on a sink or a zero coefficient.  Returns the
    nonzero coefficients of the end state."""
    pos = {v: i for i, v in enumerate(spec.vertices)}
    out: list[list[int]] = [[] for _ in spec.vertices]
    for _, src, dst in spec.edges:
        out[pos[src]].append(pos[dst])
    state = [multiplier] * len(spec.vertices)
    for v in steps:
        i = pos.get(v)
        if i is None or not out[i] or state[i] < 1:
            return None
        state[i] -= 1
        for j in out[i]:
            state[j] += 1
    return {v: c for v, c in zip(spec.vertices, state) if c}


def check_equality(
    spec: Spec,
    m: int,
    n: int,
    sigma: Iterable[str],
    sigma_prime: Iterable[str],
    end: Mapping[str, int],
) -> Optional[str]:
    """None when m > n >= 1 and both traces replay to `end`; otherwise the
    reason the claimed equality m * sum(V) = n * sum(V) does not hold."""
    if not m > n >= 1:
        return f"bad multipliers m={m} n={n}"
    got_m = replay(spec, m, sigma)
    got_n = replay(spec, n, sigma_prime)
    if got_m is None or got_n is None:
        return "trace does not replay"
    if got_m != got_n or got_m != {v: c for v, c in end.items() if c}:
        return "traces end in different elements"
    return None


def check_verdict(
    spec: Spec,
    ranks: tuple[int, int],
    verdict_ibn: bool,
    rank_m: int,
    rank_aug: int,
    witness: Optional[Mapping],
) -> Optional[str]:
    """None when a decide result agrees with the reference ranks and, on a
    negative verdict, carries a witness that replays; otherwise a reason.
    `witness` has the keys of the JSON witness: m, n, sigma, sigma_prime,
    gamma."""
    if (rank_m, rank_aug) != ranks or verdict_ibn != has_ibn(ranks):
        return f"ranks {(rank_m, rank_aug)} verdict {verdict_ibn}, reference {ranks}"
    if verdict_ibn:
        return None if witness is None else "witness on a positive verdict"
    if witness is None:
        return "negative verdict without a witness"
    return check_equality(
        spec,
        witness["m"],
        witness["n"],
        witness["sigma"],
        witness["sigma_prime"],
        witness["gamma"],
    )
