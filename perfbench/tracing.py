"""Span recorder for the traced run, installed around the package's
inter-module calls.

The benchmark sees the program only through its public functions and
`cli.main`.  A traced run replaces, for its duration, the module-level
names through which one module of the package calls another (for example
`ibn_criterion.augmented_ranks`) with wrappers that record a span.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Optional


class Recorder:
    """Spans as [name, start_ns, end_ns, parent index, operation id], plus
    counters that the wrappers fill from arguments and results."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.op = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def duration_ns(self, index: int) -> int:
        span = self.spans[index]
        return span[2] - span[1]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


Hook = Callable[[Recorder, int, tuple, object], None]


def traced(rec: Recorder, name: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
    """`fn` wrapped in a span called `name`; `hook` sees the span index,
    the arguments and the result after the span has closed."""

    def wrapper(*args, **kwargs):
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if hook is not None:
            hook(rec, index, args, result)
        return result

    return wrapper


def _nnz(rec, _i, _args, system):
    rec.counts["exact_linalg.nnz"] += sum(1 for x in system.matrix.entries if x)


def _verdict(rec, _i, _args, verdict):
    rec.counts["decide.non_ibn"] += not verdict.has_ibn


def _witness(rec, _i, _args, w):
    rec.counts["ibn_criterion.schedule_steps"] += len(w.sigma) + len(w.sigma_prime)
    bits = w.d.bit_length()
    if bits > rec.maxima["ibn_criterion.witness_d_bits_max"]:
        rec.maxima["ibn_criterion.witness_d_bits_max"] = bits


def _replay(rec, _i, args, _result):
    rec.counts["replay.steps"] += len(args[2].steps)


def _cycles(rec, _i, _args, cycles):
    rec.counts["graph_core.cycles_enumerated"] += len(cycles)


def _classified(rec, _i, _args, result):
    rec.counts["classify.decided"] += result.rule is not None


def _make_equal_hook(lib):
    def hook(rec, index, _args, result):
        if isinstance(result, lib.Equal):
            rec.counts["graph_monoid.pairs_found"] += 1
        else:
            rec.counts["graph_monoid.states_explored"] += result.states_explored
            rec.counts["notfound.ns"] += rec.duration_ns(index)

    return hook


def wrapped_names(lib) -> list[tuple[object, str, str, Optional[Hook]]]:
    """(module, attribute, span name, hook) for every wrapped name; `lib`
    is the imported package with its `cli` submodule loaded."""
    return [
        (lib.ibn_criterion, "criterion_system", "exact_linalg.criterion_system", _nnz),
        (lib.ibn_criterion, "augmented_ranks", "exact_linalg.augmented_ranks", None),
        (lib.ibn_criterion, "solve_particular", "exact_linalg.solve_particular", None),
        (lib.ibn_criterion, "execute_counts", "graph_monoid.execute_counts", None),
        (lib.ibn_criterion, "replay_trace", "graph_monoid.replay_trace", _replay),
        (lib.ibn_criterion, "construct_witness", "ibn_criterion.construct_witness", _witness),
        (lib.ibn_criterion, "verify_witness", "ibn_criterion.verify_witness", None),
        (lib.classifiers, "source_free_form", "transforms.source_free_form", None),
        (lib.classifiers, "enumerate_simple_cycles", "graph_core.enumerate_simple_cycles", _cycles),
        (lib.transforms, "source_eliminate", "transforms.source_eliminate", None),
        (lib.transforms, "build_graph", "graph_core.build_graph", None),
        (lib.gtf, "build_graph", "graph_core.build_graph", None),
        (lib.graph_monoid, "equal_in_monoid", "graph_monoid.equal_in_monoid", _make_equal_hook(lib)),
        (lib.cli, "parse_gtf", "gtf.parse_gtf", None),
        (lib.cli, "decide_ibn", "ibn_criterion.decide_ibn", _verdict),
        (lib.cli, "classify_sufficient", "classifiers.classify_sufficient", _classified),
        (lib.cli, "verdict_json", "jsonio.verdict_json", None),
        (lib.cli, "classify_json", "jsonio.classify_json", None),
    ]


# the benchmark's own calls into the package, traced as operation roots
ROOT_HOOKS: dict[str, Optional[Hook]] = {
    "ibn_criterion.decide_ibn": _verdict,
    "graph_monoid.ibn_refute_search": None,
    "cli.main": None,
}


class Installed:
    """Context manager that swaps the wrappers in and restores the
    original names on exit, also when an operation raised."""

    def __init__(self, rec: Recorder, lib) -> None:
        self._saved = []
        self._rec = rec
        self._lib = lib

    def __enter__(self):
        for module, attr, name, hook in wrapped_names(self._lib):
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, traced(self._rec, name, original, hook))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def self_times_ns(spans: list[list]) -> list[int]:
    """Per span: its duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_name, start, end, _parent, _op) in enumerate(spans):
        covered = 0
        cur_start = cur_end = None
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            elif e > cur_end:
                cur_end = e
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(end - start - covered)
    return out


PER_LAYER_UNITS = {
    "exact_linalg.augmented_ranks_s": "s",
    "exact_linalg.augmented_ranks_calls": "count",
    "exact_linalg.criterion_system_s": "s",
    "exact_linalg.nnz": "count",
    "exact_linalg.solve_particular_s": "s",
    "ibn_criterion.construct_witness_self_s": "s",
    "ibn_criterion.verify_witness_self_s": "s",
    "ibn_criterion.non_ibn_share": "share",
    "ibn_criterion.schedule_steps": "count",
    "ibn_criterion.witness_d_bits_max": "bits",
    "graph_monoid.execute_counts_s": "s",
    "graph_monoid.execute_counts_calls": "count",
    "graph_monoid.replay_trace_s": "s",
    "graph_monoid.replay_steps_per_s": "1/s",
    "graph_monoid.equal_in_monoid_s": "s",
    "graph_monoid.states_explored": "count",
    "graph_monoid.states_per_s": "1/s",
    "graph_monoid.pairs_attempted": "count",
    "graph_monoid.pairs_found": "count",
    "transforms.source_free_form_s": "s",
    "transforms.source_eliminate_calls": "count",
    "graph_core.build_graph_calls": "count",
    "graph_core.enumerate_simple_cycles_s": "s",
    "graph_core.cycles_enumerated": "count",
    "classifiers.classify_self_s": "s",
    "classifiers.decided_share": "share",
    "gtf.parse_s": "s",
    "jsonio.encode_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """The per-layer metrics of PER_LAYER_UNITS except trace.overhead_s.
    Layers the workload never reached read 0."""
    total = defaultdict(int)
    own = defaultdict(int)
    calls = defaultdict(int)
    for span, self_ns in zip(rec.spans, self_times_ns(rec.spans)):
        name = span[0]
        total[name] += span[2] - span[1]
        own[name] += self_ns
        calls[name] += 1
    c = rec.counts

    def s(ns: int) -> float:
        return ns / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "exact_linalg.augmented_ranks_s": s(total["exact_linalg.augmented_ranks"]),
        "exact_linalg.augmented_ranks_calls": calls["exact_linalg.augmented_ranks"],
        "exact_linalg.criterion_system_s": s(total["exact_linalg.criterion_system"]),
        "exact_linalg.nnz": c["exact_linalg.nnz"],
        "exact_linalg.solve_particular_s": s(total["exact_linalg.solve_particular"]),
        "ibn_criterion.construct_witness_self_s": s(own["ibn_criterion.construct_witness"]),
        "ibn_criterion.verify_witness_self_s": s(own["ibn_criterion.verify_witness"]),
        "ibn_criterion.non_ibn_share": ratio(
            c["decide.non_ibn"], calls["ibn_criterion.decide_ibn"]
        ),
        "ibn_criterion.schedule_steps": c["ibn_criterion.schedule_steps"],
        "ibn_criterion.witness_d_bits_max": rec.maxima["ibn_criterion.witness_d_bits_max"],
        "graph_monoid.execute_counts_s": s(total["graph_monoid.execute_counts"]),
        "graph_monoid.execute_counts_calls": calls["graph_monoid.execute_counts"],
        "graph_monoid.replay_trace_s": s(total["graph_monoid.replay_trace"]),
        "graph_monoid.replay_steps_per_s": ratio(
            c["replay.steps"], s(total["graph_monoid.replay_trace"])
        ),
        "graph_monoid.equal_in_monoid_s": s(total["graph_monoid.equal_in_monoid"]),
        "graph_monoid.states_explored": c["graph_monoid.states_explored"],
        "graph_monoid.states_per_s": ratio(
            c["graph_monoid.states_explored"], s(c["notfound.ns"])
        ),
        "graph_monoid.pairs_attempted": calls["graph_monoid.equal_in_monoid"],
        "graph_monoid.pairs_found": c["graph_monoid.pairs_found"],
        "transforms.source_free_form_s": s(total["transforms.source_free_form"]),
        "transforms.source_eliminate_calls": calls["transforms.source_eliminate"],
        "graph_core.build_graph_calls": calls["graph_core.build_graph"],
        "graph_core.enumerate_simple_cycles_s": s(total["graph_core.enumerate_simple_cycles"]),
        "graph_core.cycles_enumerated": c["graph_core.cycles_enumerated"],
        "classifiers.classify_self_s": s(own["classifiers.classify_sufficient"]),
        "classifiers.decided_share": ratio(
            c["classify.decided"], calls["classifiers.classify_sufficient"]
        ),
        "gtf.parse_s": s(total["gtf.parse_gtf"]),
        "jsonio.encode_s": s(total["jsonio.verdict_json"] + total["jsonio.classify_json"]),
        "cli.self_s": s(own["cli.main"]),
    }


def layer_shares(rec: Recorder) -> dict[str, float]:
    """Each module's self time as a share of the time inside operation
    roots; the shares add up to 1."""
    own = defaultdict(int)
    for span, self_ns in zip(rec.spans, self_times_ns(rec.spans)):
        own[span[0].split(".", 1)[0]] += self_ns
    total = sum(own.values())
    return {m: ns / total for m, ns in sorted(own.items())} if total else {}
