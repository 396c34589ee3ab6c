"""Exact integer linear algebra for the rank criterion.

One elimination route: rank, augmented ranks and the particular solution
all run the same fraction-free integer elimination (one-step
division-exact updates) with the same pivot rule, and solve_augmented
returns both ranks and the solution from one elimination of [M | rhs].
The particular solution is back-substituted in integers over one common
denominator.  Tests cross-check both against independent rational
eliminations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import DimensionMismatch, EmptyGraph
from .graph_core import Graph, canonical_order


class IntMatrix:
    """Row-major immutable integer matrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]):
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        entries = []
        for row in rows:
            if len(row) != ncols:
                raise DimensionMismatch("ragged rows")
            entries.extend(int(x) for x in row)
        return cls(nrows, ncols, tuple(entries))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row_lists(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(
            " ".join(str(self.at(i, j)) for j in range(self.cols)) for i in range(self.rows)
        )
        return f"IntMatrix[{body}]"


class CriterionSystem(NamedTuple):
    matrix: IntMatrix  # transposed incidence minus the regular-diagonal
    rhs: tuple[int, ...]  # all ones
    z: int  # number of regular vertices
    order: tuple[str, ...]  # canonical vertex order (regular first)


def criterion_system(g: Graph) -> CriterionSystem:
    """Build M = A^t - J and b = (1,...,1) over the canonical order, where
    A is the incidence matrix and J has ones exactly on the first z
    diagonal entries (one relation per regular vertex)."""
    if not g.vertices:
        raise EmptyGraph("criterion system needs at least one vertex")
    order, z = canonical_order(g)
    pos = {v: i for i, v in enumerate(order)}
    h = len(order)
    a = [[0] * h for _ in range(h)]
    for e in g.edges:
        a[pos[e.dst]][pos[e.src]] += 1  # filled directly as the transpose
    for i in range(z):
        a[i][i] -= 1
    # sinks emit nothing and carry no relation, so their columns must vanish
    assert all(a[i][j] == 0 for j in range(z, h) for i in range(h))
    matrix = IntMatrix(h, h, tuple(x for row in a for x in row))
    return CriterionSystem(matrix, (1,) * h, z, order)


def _fraction_free_pivot_cols(a: list[list[int]], nrows: int, ncols: int) -> list[int]:
    """Eliminate in place with one-step fraction-free updates (divisions by
    the previous pivot are exact); returns pivot column indices.  Pivot
    rule: first nonzero scanning rows top-to-bottom, columns left-to-right."""
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        p = -1
        for i in range(r, nrows):
            if a[i][c]:
                p = i
                break
        if p < 0:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
        row_r = a[r]
        piv = row_r[c]
        for i in range(r + 1, nrows):
            row_i = a[i]
            f = row_i[c]
            for j in range(c + 1, ncols):
                row_i[j] = (piv * row_i[j] - f * row_r[j]) // prev
            row_i[c] = 0
        prev = piv
        pivots.append(c)
        r += 1
    return pivots


def rank(m: IntMatrix) -> int:
    """Exact rank by fraction-free elimination on integers."""
    return len(_fraction_free_pivot_cols(m.row_lists(), m.rows, m.cols))


def _eliminate_augmented(
    m: IntMatrix, rhs: Sequence[int]
) -> tuple[list[list[int]], list[int]]:
    """[M | rhs] as row lists, eliminated in place, and its pivot columns."""
    if len(rhs) != m.rows:
        raise DimensionMismatch("rhs length must equal row count")
    c = m.cols
    a = [
        list(m.entries[i * c : (i + 1) * c]) + [int(rhs[i])]
        for i in range(m.rows)
    ]
    return a, _fraction_free_pivot_cols(a, m.rows, c + 1)


class AugmentedSolve(NamedTuple):
    rank_m: int
    rank_aug: int
    solution: Optional[tuple[Fraction, ...]]  # None when inconsistent


def solve_augmented(m: IntMatrix, rhs: Sequence[int]) -> AugmentedSolve:
    """rank M, rank [M | rhs] and one rational solution of M x = rhs (every
    free variable 0; None when inconsistent), all from a single
    elimination of [M | rhs].  Columns are processed left to right, so
    the pivots before the last column are exactly the pivots of M alone,
    and fixing the pivot columns makes the solution unique."""
    a, pivots = _eliminate_augmented(m, rhs)
    c = m.cols
    r = len(pivots)
    if pivots and pivots[-1] == c:
        return AugmentedSolve(r - 1, r, None)
    # The last pivot is the determinant of the pivot minor, so by Cramer
    # y = den * x is integral and every division below is exact.
    den = a[r - 1][pivots[-1]] if pivots else 1
    y = [0] * c
    for i in range(r - 1, -1, -1):
        row = a[i]
        acc = den * row[c]
        for j in pivots[i + 1 :]:
            acc -= row[j] * y[j]
        y[pivots[i]] = acc // row[pivots[i]]
    return AugmentedSolve(r, r, tuple(Fraction(yi, den) for yi in y))


def augmented_ranks(m: IntMatrix, rhs: Sequence[int]) -> tuple[int, int]:
    """(rank of M, rank of [M | rhs]): the ranks of solve_augmented without
    the back-substitution, which rank-only callers would discard."""
    _, pivots = _eliminate_augmented(m, rhs)
    return sum(1 for p in pivots if p < m.cols), len(pivots)


def solve_particular(
    m: IntMatrix, rhs: Sequence[int]
) -> Optional[tuple[Fraction, ...]]:
    """The particular solution of solve_augmented, or None when inconsistent."""
    return solve_augmented(m, rhs).solution
