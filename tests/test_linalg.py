"""Sparse elimination equals dense Gauss–Jordan exactly, pivot for pivot."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from jetlift import linalg
from jetlift.linalg import rank, rref, solve, solve_with_residual

from strategies import fractions

F = Fraction


# -- dense reference: the Gauss–Jordan loop the sparse routine replaced --------

def dense_rref(matrix):
    a = [list(row) for row in matrix]
    if not a:
        return a, []
    n_rows, n_cols = len(a), len(a[0])
    pivots = []
    row = 0
    for col in range(n_cols):
        pivot_row = None
        for r in range(row, n_rows):
            if a[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        a[row], a[pivot_row] = a[pivot_row], a[row]
        inv = Fraction(1) / a[row][col]
        a[row] = [v * inv for v in a[row]]
        for r in range(n_rows):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == n_rows:
            break
    return a, pivots


def dense_solve(matrix, rhs):
    if not matrix:
        return [] if not any(rhs) else None
    n_cols = len(matrix[0])
    reduced, pivots = dense_rref([list(row) + [b] for row, b in zip(matrix, rhs)])
    if n_cols in pivots:
        return None
    x = [Fraction(0)] * n_cols
    for i, piv in enumerate(pivots):
        x[piv] = reduced[i][n_cols]
    return x


def dense_solve_with_residual(matrix, rhs):
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    n_cols = len(matrix[0]) if matrix else 0
    pivots = []
    row = 0
    for col in range(n_cols):
        pivot_row = None
        for r in range(row, len(rows)):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[row], rows[pivot_row] = rows[pivot_row], rows[row]
        inv = Fraction(1) / rows[row][col]
        rows[row] = [v * inv for v in rows[row]]
        for r in range(len(rows)):
            if r != row and rows[r][col]:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[row])]
        pivots.append(col)
        row += 1
        if row == len(rows):
            break
    x = [Fraction(0)] * n_cols
    for i, piv in enumerate(pivots):
        x[piv] = rows[i][n_cols]
    residual = [b - sum((c * xv for c, xv in zip(r, x)), Fraction(0))
                for r, b in zip(matrix, rhs)]
    return x, residual, len(pivots)


# -- systems: shapes 0..8 x 0..8, sparse or dense, rank-deficient, inconsistent --

@st.composite
def systems(draw):
    m = draw(st.integers(min_value=0, max_value=8))
    n = draw(st.integers(min_value=0, max_value=8))
    zero = st.just(F(0))
    entry = draw(st.sampled_from([
        fractions(),                                  # dense fill
        st.one_of(zero, fractions()),                 # about half zeros
        st.one_of(zero, zero, zero, zero, fractions()),  # sparse fill
    ]))
    matrix = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    for i in range(1, m):                             # repeated rows drop the rank
        if draw(st.booleans()):
            j = draw(st.integers(min_value=0, max_value=i - 1))
            scale = draw(fractions())
            matrix[i] = [scale * v for v in matrix[j]]
    kind = draw(st.sampled_from(["image", "random", "zero"]))
    if kind == "image":                               # consistent by construction
        x = draw(st.lists(entry, min_size=n, max_size=n))
        rhs = [sum((a * b for a, b in zip(row, x)), F(0)) for row in matrix]
    elif kind == "random":                            # usually inconsistent
        rhs = draw(st.lists(entry, min_size=m, max_size=m))
    else:
        rhs = [F(0)] * m
    return matrix, rhs


@settings(max_examples=400, deadline=None)
@given(systems())
def test_matches_dense_reference(system):
    matrix, rhs = system
    assert rref(matrix) == dense_rref(matrix)
    assert rank(matrix) == len(dense_rref(matrix)[1])
    assert solve(matrix, rhs) == dense_solve(matrix, rhs)
    assert solve_with_residual(matrix, rhs) == dense_solve_with_residual(matrix, rhs)


@settings(max_examples=100, deadline=None)
@given(systems())
def test_elimination_stores_no_zero(system):
    matrix, _ = system
    n_cols = len(matrix[0]) if matrix else 0
    rows = [{c: v for c, v in enumerate(row) if v} for row in matrix]
    linalg._eliminate(rows, n_cols)
    assert all(v for row in rows for v in row.values())


def test_empty_shapes():
    assert rref([]) == ([], [])
    assert rref([[], []]) == ([[], []], [])
    assert solve([], []) == [] and solve([], [F(1)]) is None
    assert solve([[], []], [F(0), F(1)]) is None
    assert solve_with_residual([], []) == ([], [], 0)
    assert solve_with_residual([[], []], [F(0), F(2)]) == ([], [F(0), F(2)], 0)


def test_residual_representative_follows_pivot_rule():
    # rows 0 and 1 are parallel and the third column is free.  Column 0 swaps
    # row 2 up and row 0 down, so row 1 is the pivot of column 1 and the
    # residual sits on row 0.
    matrix = [[F(0), F(2), F(1)], [F(0), F(4), F(2)], [F(3), F(0), F(0)]]
    x, residual, r = solve_with_residual(matrix, [F(1), F(5), F(6)])
    assert r == 2
    assert x == [F(2), F(5, 4), F(0)]
    assert residual == [F(-3, 2), F(0), F(0)]
    assert solve(matrix, [F(1), F(5), F(6)]) is None
    assert solve(matrix, [F(1), F(2), F(6)]) == [F(2), F(1, 2), F(0)]
