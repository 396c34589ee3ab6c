"""The four workloads: what one pass generates, the call it makes into the
package per operation, and the check of each result against reference.py.

A run repeats passes.  Pass p of a workload is generated from its own
random stream, seeded by (workload, seed, p), so the same seed gives the
same inputs.  Graph sizes within a pass are fixed strata, with a random
size inside a stratum where noted, and the edges, names and order are
random.  This keeps the work per pass, and so every end-to-end figure,
nearly the same from seed to seed.  Where sizes are drawn inside strata,
operation times fill a range without gaps, so p50 and p90 do not jump
between groups of operations from run to run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from typing import Callable, Optional

import graphs
import reference
from graphs import Spec


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _with_verdict(make: Callable[[], Spec], want_ibn: bool) -> Spec:
    # rejection sampling on the reference ranks, never on the program
    while True:
        spec = make()
        if reference.has_ibn(reference.reference_ranks(spec)) == want_ibn:
            return spec


def _witness_dict(w) -> Optional[dict]:
    if w is None:
        return None
    return {
        "m": w.m,
        "n": w.n,
        "sigma": w.sigma.steps,
        "sigma_prime": w.sigma_prime.steps,
        "gamma": w.gamma.to_dict(),
    }


class Workload:
    """One pass is `specs(rng)`; `prepare` turns specs into the program's
    inputs (this is set-up work); `root(lib)` is the package function the
    benchmark calls, and `op(root, input)` one operation."""

    name = ""
    root_name = ""  # span name of the benchmark's call into the package
    pass_s = 1.0  # seconds per pass at the seed, sizes the traced run

    def specs(self, rng: random.Random) -> list[Spec]:
        raise NotImplementedError

    def prepare(self, lib, specs: list[Spec], workdir: str) -> list:
        return [lib.build_graph(s.vertices, s.edges) for s in specs]

    def root(self, lib) -> Callable:
        return lib.decide_ibn

    def op(self, root: Callable, item):
        return root(item)

    def check(self, spec: Spec, out) -> Optional[str]:
        """None when `out` agrees with the reference, else the reason; a
        reason of the form exit-<code> is a CLI exit code."""
        return reference.check_verdict(
            spec,
            reference.reference_ranks(spec),
            out.has_ibn,
            out.rank_m,
            out.rank_aug,
            _witness_dict(out.witness),
        )


class RankSparseIbn(Workload):
    name = "rank-sparse-ibn"
    root_name = "ibn_criterion.decide_ibn"
    pass_s = 3.5
    STRATA = tuple(range(40, 201, 16))  # h in [lo, lo + 16) for each family
    LARGE = 320  # one cycle and one chain per pass show the cubic elimination

    def specs(self, rng):
        out = []
        for lo in self.STRATA:
            out.append(graphs.cycle(lo + rng.randrange(16), rng))
            out.append(graphs.chain(lo + rng.randrange(16), rng))
            h = lo + rng.randrange(16)
            out.append(_with_verdict(lambda: graphs.random_out(h, 0, 3, rng), True))
        out.append(graphs.cycle(self.LARGE, rng))
        out.append(graphs.chain(self.LARGE, rng))
        rng.shuffle(out)
        return out


class WitnessNonIbn(Workload):
    name = "witness-nonibn"
    root_name = "ibn_criterion.decide_ibn"
    pass_s = 1.1
    TWO_LOOP_STRATA = (24, 32, 40, 48, 56)  # h in [lo, lo + 8)
    SOURCE_FREE_STRATA = (16, 20, 24, 28, 32)  # h in [lo, lo + 4)

    def specs(self, rng):
        out = []
        for _ in range(2):
            for lo in self.TWO_LOOP_STRATA:
                h = lo + rng.randrange(8)
                out.append(
                    _with_verdict(lambda: graphs.random_out(h, 0, 3, rng, loops=2), False)
                )
            for lo in self.SOURCE_FREE_STRATA:
                h = lo + rng.randrange(4)
                out.append(_with_verdict(lambda: graphs.source_free(h, rng), False))
        rng.shuffle(out)
        return out


class CliExplore(Workload):
    name = "cli-explore"
    root_name = "cli.main"
    pass_s = 0.75
    # The verdict sets the cost (a witness costs 4-5 times the rank), so
    # each pass has fixed numbers of graphs with and without IBN.  Cycle
    # enumeration on source-free graphs is exponential: above h = 28 its
    # tail would decide the run's p90 and peak memory.  The two in-forest
    # graphs without IBN at h = 100..120 are the costliest sixth of a pass,
    # so p90 falls inside that group.
    SOURCE_FREE_STRATA = (16, 19, 22, 25)  # h in [lo, lo + 4)
    # many sources feeding a core of 3..6 vertices: (IBN, h range)
    FOREST = ((True, (60, 89)), (True, (90, 120)), (False, (100, 120)), (False, (100, 120)))

    def specs(self, rng):
        out = []
        for want_ibn in (True, False):
            for lo in self.SOURCE_FREE_STRATA:
                h = lo + rng.randrange(4)
                out.append(_with_verdict(lambda: graphs.source_free(h, rng), want_ibn))
        for want_ibn, sizes in self.FOREST:
            h = rng.randint(*sizes)
            out.append(
                _with_verdict(lambda: graphs.in_forest_core(h, rng.randint(3, 6), rng), want_ibn)
            )
        rng.shuffle(out)
        return out

    def prepare(self, lib, specs, workdir):
        paths = []
        for k, s in enumerate(specs):
            path = os.path.join(workdir, f"g{k}.gtf")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(lib.serialize_graph(lib.build_graph(s.vertices, s.edges)))
            paths.append(path)
        return paths

    def root(self, lib):
        return lib.cli.main

    def op(self, main, path):
        """The per-file work of `batch`: decide, then classify, as JSON."""
        results = []
        for command in ("decide", "classify"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main([command, path, "--json"])
            results.append((code, buf.getvalue()))
        return results

    def check(self, spec, out):
        (code_d, text_d), (code_c, text_c) = out
        if code_d or code_c:
            return f"exit-{code_d or code_c}"
        ranks = reference.reference_ranks(spec)
        verdict = json.loads(text_d)
        reason = reference.check_verdict(
            spec,
            ranks,
            verdict["has_ibn"],
            verdict["rank_M"],
            verdict["rank_aug"],
            verdict["witness"],
        )
        if reason is None and json.loads(text_c)["rule"] is not None:
            if not reference.has_ibn(ranks):
                reason = "a sufficient condition fired on a graph without IBN"
        return reason


class OracleSmall(Workload):
    name = "oracle-small"
    root_name = "graph_monoid.ibn_refute_search"
    pass_s = 1.0
    # Out-degree 1..3, no sinks.  Graphs with IBN run their searches to
    # the state budget, at a cost set mostly by h: five at h = 5 and four
    # at h = 6 put p50 and p90 inside those two groups.  The graphs
    # without IBN are mostly refuted within the budget.
    IBN_SIZES = (5,) * 5 + (6,) * 4
    NON_IBN_SIZES = (4, 5, 6)
    MAX_MN = 4
    MAX_STATES = 5000

    def specs(self, rng):
        wanted = [(h, True) for h in self.IBN_SIZES] + [(h, False) for h in self.NON_IBN_SIZES]
        out = [
            _with_verdict(lambda: graphs.random_out(h, 1, 3, rng), want_ibn)
            for h, want_ibn in wanted
        ]
        rng.shuffle(out)
        return out

    def root(self, lib):
        budget = lib.SearchBudget(max_states=self.MAX_STATES)
        search = lib.ibn_refute_search
        return lambda g: search(g, self.MAX_MN, budget)

    def check(self, spec, res):
        if res is None:  # inconclusive by design
            return None
        if reference.has_ibn(reference.reference_ranks(spec)):
            return "equality found on a graph with IBN"
        if res.m > self.MAX_MN:
            return f"m={res.m} beyond max_mn"
        eq = res.equality
        return reference.check_equality(
            spec, res.m, res.n, eq.trace_x.steps, eq.trace_y.steps, eq.common.to_dict()
        )


WORKLOADS = {w.name: w for w in (RankSparseIbn(), WitnessNonIbn(), CliExplore(), OracleSmall())}
