"""Sparse elimination equals dense Gauss–Jordan exactly, pivot for pivot.

The dense reference takes row lists; `solve_with_residual` takes the same
systems as keyed columns, a keyed right-hand side and the row keys in order.
"""

from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from jetlift import linalg
from jetlift.linalg import rank, rref, solve_combination, solve_with_residual

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


def keyed(matrix, rhs, order=None):
    """The dense system as keyed columns, keyed rhs and row keys (in `order`)."""
    n_cols = len(matrix[0]) if matrix else 0
    keys = [f"row{i}" for i in range(len(matrix))]
    columns = [{keys[i]: row[j] for i, row in enumerate(matrix) if row[j]}
               for j in range(n_cols)]
    b = {keys[i]: v for i, v in enumerate(rhs) if v}
    rows = keys if order is None else [keys[i] for i in order]
    return columns, b, rows


# -- systems: shapes 0..8 x 0..8, sparse or dense, rank-deficient, inconsistent --

# pairwise coprime primes near 10^6 .. 2^61: rows get large contents and
# denominators, so content reduction and the final division do real work
LARGE_PRIMES = [999983, 1000003, 2147483647, 1000000007, 998244353,
                2305843009213693951]


def large_fractions():
    return st.builds(F, st.integers(min_value=-10**12, max_value=10**12),
                     st.sampled_from(LARGE_PRIMES))


@st.composite
def systems(draw, fractions=fractions):
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
    # rows no column touches; a nonzero b there is a key only the rhs holds
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i = draw(st.integers(min_value=0, max_value=len(matrix)))
        matrix.insert(i, [F(0)] * n)
        rhs.insert(i, draw(st.one_of(zero, fractions())) if kind == "random" else F(0))
    return matrix, rhs


def check_against_dense(system):
    matrix, rhs = system
    assert rref(matrix) == dense_rref(matrix)
    assert rank(matrix) == len(dense_rref(matrix)[1])
    x, residual, r = solve_with_residual(*keyed(matrix, rhs))
    dense_x, dense_residual, dense_r = dense_solve_with_residual(matrix, rhs)
    assert (x, r) == (dense_x, dense_r)
    assert residual == {f"row{i}": v for i, v in enumerate(dense_residual) if v}
    assert (None if residual else x) == dense_solve(matrix, rhs)


@settings(max_examples=400, deadline=None)
@given(systems())
def test_matches_dense_reference(system):
    check_against_dense(system)


@settings(max_examples=200, deadline=None)
@given(systems(large_fractions))
def test_matches_dense_reference_large_denominators(system):
    check_against_dense(system)


@settings(max_examples=100, deadline=None)
@given(systems())
def test_integer_matrix_rank(system):
    # ints go in as they are; the rank is that of the same matrix over Q
    matrix, _ = system
    den = lcm(*[v.denominator for row in matrix for v in row])
    scaled = [[v.numerator * (den // v.denominator) for v in row] for row in matrix]
    assert all(type(v) is int for row in scaled for v in row)
    assert rank(scaled) == len(dense_rref(matrix)[1])


@settings(max_examples=200, deadline=None)
@given(systems(), st.data())
def test_consistent_answer_ignores_row_order(system, data):
    # the solvers that only ask "is there a solution" pass their rows sorted
    matrix, rhs = system
    order = data.draw(st.permutations(range(len(matrix))))
    x, residual, r = solve_with_residual(*keyed(matrix, rhs))
    shuffled = solve_with_residual(*keyed(matrix, rhs, order))
    assert shuffled[2] == r
    assert bool(shuffled[1]) == bool(residual)
    if not residual:
        assert shuffled == (x, {}, r)


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
    assert solve_with_residual([], {}, []) == ([], {}, 0)
    assert solve_with_residual([], {"b": F(2)}, ["a", "b"]) == ([], {"b": F(2)}, 0)
    assert solve_with_residual([{}, {}], {}, ["a"]) == ([F(0), F(0)], {}, 0)


def test_zero_target_is_solved_without_elimination(monkeypatch):
    # gens 1 + 2X on component 0 with -X^2 on component 1, and 3X on component 0
    gens = [[{(0,): F(1), (1,): F(2)}, {(2,): F(-1)}], [{(1,): F(3)}, {}]]
    shifts = [(e,) for e in range(-2, 3)]
    columns = [{(comp, (exp[0] + e[0],)): c for comp, terms in enumerate(g)
                for exp, c in terms.items()} for g in gens for e in shifts]
    x, residual, _ = solve_with_residual(columns, {}, sorted(set().union(*columns)))
    assert residual == {} and not any(x)    # the eliminated answer is zero
    calls = []
    monkeypatch.setattr(linalg, "solve_with_residual", lambda *a: calls.append(a))
    assert solve_combination(gens, [{}, {}], shifts) == [{}, {}]
    assert calls == []


def test_residual_representative_follows_pivot_rule():
    # rows a and b are parallel and the third column is free.  Column 0 swaps
    # row c up and row a down, so row b is the pivot of column 1 and the
    # residual sits on row a.
    columns = [{"c": F(3)}, {"a": F(2), "b": F(4)}, {"a": F(1), "b": F(2)}]
    rows = ["a", "b", "c"]
    x, residual, r = solve_with_residual(columns, {"a": F(1), "b": F(5), "c": F(6)}, rows)
    assert r == 2
    assert x == [F(2), F(5, 4), F(0)]
    assert residual == {"a": F(-3, 2)}
    x, residual, r = solve_with_residual(columns, {"a": F(1), "b": F(2), "c": F(6)}, rows)
    assert (x, residual, r) == ([F(2), F(1, 2), F(0)], {}, 2)
