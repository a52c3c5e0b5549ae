"""Exact linear algebra over Q (Fraction or int entries, integer elimination).

Every routine runs on sparse rows (a dict from column to nonzero entry, no zero
ever stored) through the one Gauss–Jordan routine `_eliminate`, which does
arithmetic only on nonzero entries, and only on Python ints: it scales each row
to an integer multiple of itself and eliminates fraction-free.  The answers are
over Q: `rref` and `solve_with_residual` divide each pivot row by its pivot
and give Fractions; `rank` divides nothing.  `rref` and `rank` take dense row
lists for the small pointwise matrices, and `rank` takes int rows as they are.
`solve_with_residual` takes a linear system as its callers hold it: keyed
columns (a dict from row key to nonzero entry per unknown), a keyed right-hand
side, and the list of row keys in elimination order.  The sparse rows are
assembled from the nonzeros alone, so no dense cell is formed; the Čech
coboundary systems this engine builds have one or a few nonzeros per column,
and the work follows the fill, not the shape.  `solve_combination` assembles
the generator-combination systems of `cech` and `frobenius`.

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
from math import gcd, lcm
from operator import add
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

Matrix = List[List[Fraction]]
Row = Dict[int, Union[int, Fraction]]
Terms = Mapping[Tuple[int, ...], Fraction]

__all__ = ["rref", "rank", "solve_with_residual", "solve_combination"]

_ZERO = Fraction(0)


def _sparse(row: Sequence[Fraction]) -> Row:
    return {c: v for c, v in enumerate(row) if v}


def _make_primitive(row: Row) -> None:
    """Scale a nonempty row in place to the primitive integer row that is a
    positive multiple of it."""
    den = lcm(*[v.denominator for v in row.values()])
    for c, v in row.items():
        row[c] = v.numerator * (den // v.denominator)
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g


def _eliminate(rows: List[Row], n_cols: int) -> List[int]:
    """Fraction-free Gauss–Jordan in place on sparse rows; pivots only in columns < n_cols.

    Each nonempty row is first scaled to a primitive integer row (a row whose
    entries are already ints is taken as it is).  With pivot entry p, a row
    with entry f in the pivot column becomes (p/g) row - (f/g) pivot, g =
    gcd(p, f), divided by its content.  So every row stays a nonzero multiple
    of the row rational Gauss–Jordan holds, and the pivots and every zero test
    are the same.  Entries at columns >= n_cols (an augmented right-hand side)
    are carried along.  Returns the pivot columns; pivot i sits in rows[i], and
    dividing that row by its entry at the pivot gives the reduced row over Q.
    """
    for other in filter(None, rows):
        if any(type(v) is not int for v in other.values()):
            _make_primitive(other)
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
        pivot = rows[row]
        p = pivot[col]
        for other in filter(None, rows):
            f = other.get(col)
            if f is None or other is pivot:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                for c in other:
                    other[c] *= a
            for c, w in pivot.items():
                v = other.get(c, 0) - b * w
                if v:
                    other[c] = v
                else:
                    del other[c]
            g = gcd(*other.values())
            if g > 1:
                for c in other:
                    other[c] //= g
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
    reduced = [[_ZERO] * n_cols for _ in rows]
    for out, r, piv in zip(reduced, rows, pivots):
        p = r[piv]
        for c, v in r.items():
            out[c] = Fraction(v, p)
    return reduced, pivots


def rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q of a dense matrix of Fraction or int entries."""
    if not matrix:
        return 0
    return len(_eliminate([_sparse(r) for r in matrix], len(matrix[0])))


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
        v = x[piv] = Fraction(v, r[piv])
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
