"""Exact linear algebra over Q (Fraction entries, sparse elimination).

Callers pass and receive dense row lists; inside, every routine converts to
sparse rows (a dict from column to nonzero Fraction, no zero ever stored) and
runs the one Gauss–Jordan routine `_eliminate`, which does arithmetic only on
nonzero entries.  The Čech coboundary matrices this engine builds have one or a
few nonzeros per column, so the work follows the fill, not the shape.

The pivot rule fixes the answers: for each column in turn, the pivot is the
first row at or below the current one with a nonzero entry there, swapped up.
It makes the particular solution canonical (reduced row echelon form with
leftmost pivots, all free variables zero), and it fixes which representative
of b modulo the column space `solve_with_residual` reports, so downstream
output is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Matrix = List[List[Fraction]]
Row = Dict[int, Fraction]

__all__ = ["rref", "rank", "solve", "solve_with_residual"]

_ZERO = Fraction(0)


def _sparse(row: Sequence[Fraction]) -> Row:
    return {c: v for c, v in enumerate(row) if v}


def _eliminate(rows: List[Row], n_cols: int) -> List[int]:
    """Gauss–Jordan in place on sparse rows; pivots only in columns < n_cols.

    Each pivot row is scaled to 1 at its pivot and cleared from every other row.
    Entries at columns >= n_cols (an augmented right-hand side) are carried
    along.  Returns the pivot columns; pivot i sits in rows[i].
    """
    n_rows = len(rows)
    pivots: List[int] = []
    row = 0
    for col in range(n_cols):
        if row == n_rows:
            break
        for r in range(row, n_rows):
            if col in rows[r]:
                break
        else:
            continue
        rows[row], rows[r] = rows[r], rows[row]
        inv = Fraction(1) / rows[row][col]
        pivot = {c: v * inv for c, v in rows[row].items()}
        rows[row] = pivot
        for r, other in enumerate(rows):
            f = other.get(col)
            if f is None or r == row:
                continue
            for c, w in pivot.items():
                v = other.get(c, 0) - f * w
                if v:
                    other[c] = v
                else:
                    del other[c]
        pivots.append(col)
        row += 1
    return pivots


def rref(matrix: Sequence[Sequence[Fraction]]) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form and pivot column indices."""
    if not matrix:
        return [], []
    n_cols = len(matrix[0])
    rows = [_sparse(r) for r in matrix]
    pivots = _eliminate(rows, n_cols)
    return [[r.get(c, _ZERO) for c in range(n_cols)] for r in rows], pivots


def rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(matrix)[1])


def solve(matrix: Sequence[Sequence[Fraction]],
          rhs: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """One exact solution of A x = b (free variables zero), or None if inconsistent."""
    if not matrix:
        return [] if not any(rhs) else None
    n_cols = len(matrix[0])
    augmented = [list(row) + [b] for row, b in zip(matrix, rhs)]
    reduced, pivots = rref(augmented)
    if n_cols in pivots:
        return None  # pivot in the constant column: inconsistent
    x = [_ZERO] * n_cols
    for i, piv in enumerate(pivots):
        x[piv] = reduced[i][n_cols]
    return x


def solve_with_residual(matrix: Sequence[Sequence[Fraction]],
                        rhs: Sequence[Fraction]):
    """Canonical attempt at A x = b: returns (x, residual, rank).

    Pivots are restricted to the coefficient columns, free variables are zero, and
    the residual b - A x (in the original coordinates) is zero exactly when the
    system is consistent; otherwise it is a deterministic representative of the
    class of b modulo the column space.
    """
    n_cols = len(matrix[0]) if matrix else 0
    original = [_sparse(r) for r, _ in zip(matrix, rhs)]
    rows = [dict(r) for r in original]
    for r, b in zip(rows, rhs):
        if b:
            r[n_cols] = b
    pivots = _eliminate(rows, n_cols)
    x = [_ZERO] * n_cols
    nonzero: Row = {}
    for r, piv in zip(rows, pivots):
        v = r.get(n_cols)
        if v:
            x[piv] = nonzero[piv] = v
    residual = [b - sum((v * nonzero[c] for c, v in r.items() if c in nonzero), _ZERO)
                for r, b in zip(original, rhs)]
    return x, residual, len(pivots)
