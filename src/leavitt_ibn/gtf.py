"""GTF, the plain-text graph format used by the CLI.

Directives, one per line ('#' starts a comment anywhere):

    vertex <name>
    edge <id> <src> <dst>
    edges <src> <dst> <k>     # k parallel edges named <src>__<dst>__1..k

Names are tokens of letters, digits and underscore.  Endpoints must be
declared before use; nothing is auto-created.  Repeated `edges` lines for
the same pair continue the numbering.  The `edges` lines of one text may
create at most MAX_COUNTED_EDGES edges in all.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .graph_core import Graph, build_graph

_TOKEN = re.compile(r"[A-Za-z0-9_]+\Z")
_COUNT = re.compile(r"[0-9]+\Z")

# Each parallel edge costs about 0.25 KB, so a 22-byte `edges a b K` line
# with K = 10**9 would ask for about 250 GB; the count is checked against
# this total before any edge is made.
MAX_COUNTED_EDGES = 1_000_000


def _token(lineno: int, what: str, value: str) -> str:
    if not _TOKEN.match(value):
        raise ParseError(lineno, f"{what} {value!r} is not a token (letters/digits/_)")
    return value


def parse_gtf(text: str) -> Graph:
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    anon_counter: dict[tuple[str, str], int] = {}
    made = 0  # edges created by `edges` lines so far
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        directive = parts[0]
        if directive == "vertex":
            if len(parts) != 2:
                raise ParseError(lineno, "vertex takes exactly one name")
            vertices.append(_token(lineno, "vertex name", parts[1]))
        elif directive == "edge":
            if len(parts) != 4:
                raise ParseError(lineno, "edge takes id, source, range")
            eid, src, dst = (
                _token(lineno, "edge id", parts[1]),
                _token(lineno, "vertex name", parts[2]),
                _token(lineno, "vertex name", parts[3]),
            )
            edges.append((eid, src, dst))
        elif directive == "edges":
            if len(parts) != 4:
                raise ParseError(lineno, "edges takes source, range, count")
            src = _token(lineno, "vertex name", parts[1])
            dst = _token(lineno, "vertex name", parts[2])
            # int() alone would also take signs, underscores and non-ASCII
            # digits, and it refuses more than 4300 digits
            try:
                k = int(parts[3]) if _COUNT.match(parts[3]) else 0
            except ValueError:
                k = 0
            if k < 1:
                raise ParseError(lineno, f"count must be a positive integer, got {parts[3]!r}")
            made += k
            if made > MAX_COUNTED_EDGES:
                raise ParseError(
                    lineno,
                    f"edges lines ask for more than {MAX_COUNTED_EDGES} edges in all",
                )
            start = anon_counter.get((src, dst), 0)
            anon_counter[(src, dst)] = start + k
            for i in range(start + 1, start + k + 1):
                edges.append((f"{src}__{dst}__{i}", src, dst))
        else:
            raise ParseError(lineno, f"unknown directive {directive!r}")
    return build_graph(vertices, edges)


def serialize_graph(g: Graph) -> str:
    """Canonical GTF: vertices then edges, in graph order, one per line.
    parse_gtf(serialize_graph(g)) == g."""
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"edge {e.id} {e.src} {e.dst}" for e in g.edges]
    return "\n".join(lines) + "\n" if lines else ""
