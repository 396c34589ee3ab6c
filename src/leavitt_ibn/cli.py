"""Command-line interface.

Exit codes: 0 the command completed (verdicts live in the output, not the
exit code), 64 parse or usage error, 65 violated precondition, 70
internal error.  IBN_ORACLE_BUDGET overrides the oracle's default state
budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

from . import errors
from .classifiers import classify_sufficient
from .graph_core import Graph
from .graph_monoid import SearchBudget, ibn_refute_search
from .gtf import parse_gtf, serialize_graph
from .ibn_criterion import construct_witness, decide_ibn
from .jsonio import classify_json, refute_json, verdict_json, witness_json
from .transforms import (
    attach_head,
    attach_star,
    cohn_cover,
    hereditary_collapse,
    source_eliminate,
    source_free_equivalent,
    source_free_form,
    subdivide_edge,
)

EX_OK = 0
EX_PARSE = 64
EX_PRECONDITION = 65
EX_INTERNAL = 70

_PARSE_ERRORS = (
    errors.ParseError,
    errors.DuplicateVertex,
    errors.DuplicateEdge,
    errors.DanglingEndpoint,
    errors.InvalidToken,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load(path: str) -> Graph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise errors.ParseError(0, f"cannot read {path}: {exc}")
    return parse_gtf(text)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _monoid_str(coeffs: dict[str, int]) -> str:
    if not coeffs:
        return "0"
    return " + ".join(v if c == 1 else f"{c}{v}" for v, c in coeffs.items())


def _witness_text(w) -> list[str]:
    pairs = " ".join(f"{v}={c}" for v, c in w.m_vec.items())
    return [
        f"witness: m={w.m} n={w.n} d={w.d}",
        f"  m_vec: {pairs}",
        f"  sigma: {' '.join(w.sigma.steps) or '(empty)'}",
        f"  sigma_prime: {' '.join(w.sigma_prime.steps) or '(empty)'}",
        f"  gamma: {_monoid_str(w.gamma.to_dict())}",
    ]


def cmd_decide(args) -> int:
    g = _load(args.file)
    verdict = decide_ibn(g)
    if args.json:
        sys.stdout.write(_dump(verdict_json(verdict)))
        return EX_OK
    lines = [
        f"has_ibn: {str(verdict.has_ibn).lower()}",
        f"rank_M: {verdict.rank_m}",
        f"rank_aug: {verdict.rank_aug}",
    ]
    if verdict.witness is not None:
        lines += _witness_text(verdict.witness)
    sys.stdout.write("\n".join(lines) + "\n")
    return EX_OK


def cmd_witness(args) -> int:
    g = _load(args.file)
    w = construct_witness(g)
    if args.json:
        sys.stdout.write(_dump(witness_json(w)))
    else:
        sys.stdout.write("\n".join(_witness_text(w)) + "\n")
    return EX_OK


def cmd_oracle(args) -> int:
    g = _load(args.file)
    budget = args.budget
    if budget is None:
        budget = int(os.environ.get("IBN_ORACLE_BUDGET", 100_000))
    res = ibn_refute_search(g, args.max, SearchBudget(max_states=budget))
    if args.json:
        sys.stdout.write(_dump(refute_json(res)))
        return EX_OK
    if res is None:
        sys.stdout.write(
            f"no equality m*sum(V) = n*sum(V) found for 1 <= n < m <= {args.max} "
            f"within {budget} states per side (inconclusive)\n"
        )
    else:
        sys.stdout.write(
            f"found: {res.m}*sum(V) = {res.n}*sum(V)\n"
            f"  sigma: {' '.join(res.equality.trace_x.steps) or '(empty)'}\n"
            f"  sigma_prime: {' '.join(res.equality.trace_y.steps) or '(empty)'}\n"
            f"  common: {_monoid_str(res.equality.common.to_dict())}\n"
        )
    return EX_OK


def _parse_op(op: str):
    """Operation grammar: cohn-cover | source-free-form |
    source-free-equivalent | eliminate:v | attach-head:v,n |
    attach-star:v,n | subdivide:e,n | collapse:v1+v2+..."""
    name, _, arg = op.partition(":")
    try:
        if name == "cohn-cover":
            return lambda g: cohn_cover(g)
        if name == "source-free-form":
            return None  # handled specially for its report comments
        if name == "source-free-equivalent":
            return "equivalent"
        if name == "eliminate":
            (v,) = arg.split(",")
            return lambda g: source_eliminate(g, v)
        if name == "attach-head":
            v, n = arg.split(",")
            count = int(n)
            return lambda g: attach_head(g, v, count)
        if name == "attach-star":
            v, n = arg.split(",")
            count = int(n)
            return lambda g: attach_star(g, v, count)
        if name == "subdivide":
            e, n = arg.split(",")
            count = int(n)
            return lambda g: subdivide_edge(g, e, count)
        if name == "collapse":
            vs = [v for v in arg.split("+") if v]
            if not vs:
                raise ValueError("collapse needs at least one vertex")
            return lambda g: hereditary_collapse(g, vs)
    except ValueError as exc:
        raise _UsageError(f"bad operation argument in {op!r}: {exc}")
    raise _UsageError(f"unknown operation {op!r}")


def cmd_transform(args) -> int:
    action = _parse_op(args.op)
    g = _load(args.file)
    if action is None:  # source-free-form
        report = source_free_form(g)
        header = (
            f"# eliminated: {' '.join(report.eliminated) or '(none)'}\n"
            f"# isolated_seen: {str(report.isolated_seen).lower()}\n"
        )
        _emit(header + serialize_graph(report.result), args.out)
        return EX_OK
    if action == "equivalent":
        result = source_free_equivalent(g)
        if result is None:
            raise errors.NotApplicable(
                "no source-free equivalent: an isolated vertex arises during "
                "source elimination (the algebra has IBN)"
            )
        _emit(serialize_graph(result), args.out)
        return EX_OK
    _emit(serialize_graph(action(g)), args.out)
    return EX_OK


def cmd_classify(args) -> int:
    g = _load(args.file)
    result = classify_sufficient(g)
    if args.json:
        sys.stdout.write(_dump(classify_json(result)))
        return EX_OK
    if result.rule is None:
        sys.stdout.write("rule: none (sufficient conditions are inconclusive)\n")
    else:
        payload = classify_json(result)["evidence"]
        sys.stdout.write(f"rule: {result.rule}\n")
        for key, value in payload.items():
            sys.stdout.write(f"  {key}: {value}\n")
    return EX_OK


def cmd_batch(args) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise _UsageError(f"not a directory: {args.dir}")
    records = []
    for path in sorted(directory.glob("*.gtf")):
        g = parse_gtf(path.read_text(encoding="utf-8"))
        started = time.perf_counter()
        verdict = decide_ibn(g)
        rule = classify_sufficient(g).rule
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        record = verdict_json(verdict, full_witness=False)
        record = {"file": path.name, **record, "rule": rule}
        if not args.no_timings:
            record["elapsed_ms"] = round(elapsed_ms, 3)
        records.append(record)
    report = _dump(records)
    Path(args.report).write_text(report, encoding="utf-8")
    sys.stdout.write(f"wrote {len(records)} records to {args.report}\n")
    return EX_OK


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="leavitt-ibn",
        description="Decide Invariant Basis Number for the Leavitt path "
        "algebra of a finite graph (GTF input).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="rank criterion verdict, witness when IBN fails")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("witness", help="non-IBN witness (fails when the algebra has IBN)")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("oracle", help="search the graph monoid for m*sum(V) = n*sum(V)")
    p.add_argument("file")
    p.add_argument("--max", type=int, default=4, help="scan 1 <= n < m <= MAX")
    p.add_argument(
        "--budget",
        type=int,
        default=None,
        help="states per closure side (default: IBN_ORACLE_BUDGET or 100000)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("transform", help="apply a graph move, print GTF")
    p.add_argument("file")
    p.add_argument(
        "--op",
        required=True,
        help="cohn-cover | source-free-form | source-free-equivalent | "
        "eliminate:v | attach-head:v,n | attach-star:v,n | subdivide:e,n | "
        "collapse:v1+v2+...",
    )
    p.add_argument("--out", default=None, help="write GTF here instead of stdout")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("classify", help="sufficient-condition classifier")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("batch", help="decide + classify every .gtf in a directory")
    p.add_argument("dir")
    p.add_argument("--report", required=True)
    p.add_argument("--no-timings", action="store_true")
    p.set_defaults(func=cmd_batch)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EX_PARSE
    except SystemExit as exc:  # --help and argparse-internal exits
        return EX_OK if exc.code in (0, None) else EX_PARSE
    try:
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EX_PARSE
    except _PARSE_ERRORS as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EX_PARSE
    except errors.WitnessConstructionFailed as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EX_INTERNAL
    except errors.GraphAlgebraError as exc:
        sys.stderr.write(f"precondition violated: {type(exc).__name__}: {exc}\n")
        return EX_PRECONDITION
    except Exception as exc:  # a bug; reported, not a traceback
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EX_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
