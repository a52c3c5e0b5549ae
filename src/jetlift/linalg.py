"""Exact linear algebra over Q (Fraction entries, sparse elimination).

Every routine runs on sparse rows (a dict from column to nonzero Fraction, no
zero ever stored) through the one Gauss–Jordan routine `_eliminate`, which does
arithmetic only on nonzero entries.  `rref` and `rank` take and return dense
row lists for the small pointwise matrices.  `solve_with_residual` takes a
linear system as its callers hold it: keyed columns (a dict from row key to
nonzero entry per unknown), a keyed right-hand side, and the list of row keys
in elimination order.  The sparse rows are assembled from the nonzeros alone,
so no dense cell is formed; the Čech coboundary systems this engine builds have
one or a few nonzeros per column, and the work follows the fill, not the shape.
`solve_combination` assembles the generator-combination systems of `cech` and
`frobenius`.

The pivot rule fixes the answers: for each column in turn, the pivot is the
first row at or below the current one with a nonzero entry there, swapped up.
It makes the particular solution canonical (reduced row echelon form with
leftmost pivots, all free variables zero).  For a consistent system the pivot
columns and that solution do not depend on the row order.  For an inconsistent
one the row order decides which representative of b modulo the column space
`solve_with_residual` reports, so a caller that prints the residual must fix
its row order.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

Matrix = List[List[Fraction]]
Row = Dict[int, Fraction]
Terms = Mapping[Tuple[int, ...], Fraction]

__all__ = ["rref", "rank", "solve_with_residual", "solve_combination"]

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


def solve_with_residual(columns: Sequence[Mapping[Hashable, Fraction]],
                        rhs: Mapping[Hashable, Fraction],
                        rows: Sequence[Hashable]):
    """Canonical attempt at A x = b on keyed columns: returns (x, residual, rank).

    `columns[j]` and `rhs` map row keys to nonzero entries, and `rows` lists
    every row key in elimination order.  Pivots are restricted to the coefficient
    columns and free variables are zero.  The residual maps each row key to its
    nonzero entry of b - A x, so it is empty exactly when the system is
    consistent; otherwise it is a deterministic representative of the class of b
    modulo the column space.
    """
    n_cols = len(columns)
    index = {key: i for i, key in enumerate(rows)}
    sparse: List[Row] = [{} for _ in rows]
    for j, column in enumerate(columns):
        for key, v in column.items():
            sparse[index[key]][j] = v
    for key, b in rhs.items():
        sparse[index[key]][n_cols] = b
    pivots = _eliminate(sparse, n_cols)
    x = [_ZERO] * n_cols
    residual = dict(rhs)
    for r, piv in zip(sparse, pivots):
        v = r.get(n_cols)
        if not v:
            continue
        x[piv] = v
        for key, a in columns[piv].items():
            d = residual.get(key, _ZERO) - a * v
            if d:
                residual[key] = d
            else:
                del residual[key]
    return x, residual, len(pivots)


def solve_combination(gens: Sequence[Sequence[Terms]], target: Sequence[Terms],
                      shifts: Sequence[Tuple[int, ...]]) -> Optional[List[dict]]:
    """Solve target = sum_k c_k * gens[k] with each c_k supported on `shifts`.

    A vector is a list of term dicts, one per component.  Unknown (k, e), k
    major and e in the order of `shifts`, contributes X^e * gens[k]; the rows are
    the sorted (component, exponent) keys.  Returns one term dict per generator,
    or None when target is not such a combination.  A zero target returns the
    canonical solution, zero, without an elimination.
    """
    if not any(target):
        return [{} for _ in gens]
    unknowns = [(k, e) for k in range(len(gens)) for e in shifts]
    columns = [{(comp, tuple(map(add, exp, e))): c
                for comp, terms in enumerate(gens[k]) for exp, c in terms.items()}
               for k, e in unknowns]
    rhs = {(comp, exp): c for comp, terms in enumerate(target)
           for exp, c in terms.items()}
    x, residual, _ = solve_with_residual(columns, rhs,
                                         sorted(set(rhs).union(*columns)))
    if residual:
        return None
    coeffs: List[dict] = [{} for _ in gens]
    for value, (k, e) in zip(x, unknowns):
        if value:
            coeffs[k][e] = value
    return coeffs
