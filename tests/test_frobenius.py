"""Pointwise rank, stratification sampling, involutivity certificates."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlift import frobenius
from jetlift.algebra import Poly
from jetlift.errors import DimensionError, LimitError, OrderError
from jetlift.frobenius import (CounterexamplePoint, Distribution,
                               InvolutivityCertificate, NotFoundUpTo,
                               default_search_grid, grid_points,
                               involutivity_certificate, rank_at, strata_sample)
from jetlift.vectorfields import VectorField, lie_bracket

from strategies import fractions, polys, vector_fields

X = Poly.variable(2, 0)
Z2 = Poly.zero(2)
ONE2 = Poly.one(2)

X_DX = VectorField([X, Z2])
X_DY = VectorField([Z2, X])
D_X = VectorField([ONE2, Z2])
D_Y = VectorField([Z2, ONE2])


class TestRank:
    def test_rank_two_and_zero(self):
        dist = Distribution(2, [X_DX, X_DY])
        assert rank_at(dist, [1, 0]) == 2
        assert rank_at(dist, [0, 5]) == 0

    def test_single_generator(self):
        dist = Distribution(2, [D_X])
        assert rank_at(dist, [3, -7]) == 1

    def test_duplicate_generators(self):
        dist = Distribution(2, [D_X, D_X])
        assert rank_at(dist, [0, 0]) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            rank_at(Distribution(2, [D_X]), [1])

    def test_dimension_mismatch_names_the_distribution(self):
        text = "^point has 3 coordinates, distribution has 2 variables$"
        with pytest.raises(DimensionError, match=text):
            rank_at(Distribution(2, [D_X]), [1, 2, 3])
        with pytest.raises(DimensionError, match=text):
            strata_sample(Distribution(2, [D_X]), [(0, 0), (1, 2, 3)])


# -- dense reference: Gauss–Jordan over Fraction, sharing no code with the
# integer point matrices and the fraction-free elimination behind rank_at ------

def dense_rank(matrix):
    a = [list(row) for row in matrix]
    n_cols = len(a[0]) if a else 0
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for r in range(len(a)):
            if r != rank and a[r][col]:
                f = a[r][col] / a[rank][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[rank])]
        rank += 1
    return rank


def coordinates():
    """Zero, small, negative and large-denominator rational coordinates."""
    return st.one_of(
        st.just(Fraction(0)),
        fractions(),
        st.builds(Fraction, st.integers(min_value=-10**6, max_value=10**6),
                  st.integers(min_value=10**6, max_value=10**12)))


@st.composite
def distributions(draw, fields=vector_fields):
    """1-3 variables, 0-3 generators, with a zero generator or a polynomial
    multiple of another sometimes, so that the rank drops everywhere."""
    m = draw(st.integers(min_value=1, max_value=3))
    gens = draw(st.lists(fields(m), max_size=3))
    if gens and draw(st.booleans()):
        gens[draw(st.integers(min_value=0, max_value=len(gens) - 1))] = \
            VectorField.zero(m)
    if len(gens) > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(len(gens))))[:2]
        gens[i] = gens[j].scale(draw(polys(m, max_degree=1, max_terms=2)))
    point = tuple(draw(coordinates()) for _ in range(m))
    return Distribution(m, gens), point


def laurent_fields(num_vars):
    return st.lists(polys(num_vars, max_degree=2, max_terms=3, laurent=True),
                    min_size=num_vars, max_size=num_vars).map(VectorField)


@settings(max_examples=300, deadline=None)
@given(distributions())
def test_rank_matches_dense_reference(case):
    dist, pt = case
    expected = dense_rank(dist.matrix_at(pt))
    assert rank_at(dist, pt) == expected
    assert strata_sample(dist, [pt]).by_rank == {expected: (pt,)}


@settings(max_examples=200, deadline=None)
@given(distributions(laurent_fields))
def test_laurent_rank_matches_dense_reference(case):
    # the same rank at nonzero coordinates, and the ZeroDivisionError that
    # Poly.eval raises for a negative power of a zero coordinate
    dist, pt = case
    try:
        expected = dense_rank(dist.matrix_at(pt))
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            rank_at(dist, pt)
    else:
        assert rank_at(dist, pt) == expected


def test_laurent_generator_at_zero_coordinate():
    inv_x = Poly.monomial(2, (-1, 0), laurent=True)
    dist = Distribution(2, [VectorField([inv_x, Z2]), D_Y])
    assert rank_at(dist, [Fraction(-2, 3), 0]) == 2
    with pytest.raises(ZeroDivisionError):
        dist.matrix_at([0, 1])
    with pytest.raises(ZeroDivisionError):
        rank_at(dist, [0, 1])
    # a zero second coordinate is no negative power
    assert rank_at(Distribution(2, [VectorField([inv_x, Z2])]), [1, 0]) == 1


class TestInvolutivity:
    def test_negative_degree_bound_rejected(self):
        with pytest.raises(OrderError):
            involutivity_certificate(Distribution(2, [D_X, X_DY]), -1)

    def test_unknown_count_limit(self, monkeypatch):
        # s * C(d + m, m) coefficient unknowns, counted before any monomial is
        # listed
        dist = Distribution(2, [D_X, X_DY])
        listed = []
        monomials = frobenius._monomials_up_to
        monkeypatch.setattr(frobenius, "_monomials_up_to",
                            lambda m, d: listed.append(d) or monomials(m, d))
        with pytest.raises(LimitError, match=(
                r"certificate unknown count is 10100, above the limit "
                r"MAX_CERTIFICATE_UNKNOWNS = 10000")):
            involutivity_certificate(dist, 99)
        assert listed == []
        monkeypatch.setattr(frobenius, "MAX_CERTIFICATE_UNKNOWNS", 12)
        # 2 * C(2 + 2, 2) = 12 is at the limit, 2 * C(3 + 2, 2) = 20 above it
        assert isinstance(involutivity_certificate(dist, 2), CounterexamplePoint)
        with pytest.raises(LimitError, match="is 20, above"):
            involutivity_certificate(dist, 3)

    def test_certificate_xdx_xdy(self):
        dist = Distribution(2, [X_DX, X_DY])
        verdict = involutivity_certificate(dist, 0)
        assert isinstance(verdict, InvolutivityCertificate)
        assert verdict.pairs[(0, 1)] == (Poly.zero(2), Poly.one(2))
        assert verdict.verify(dist)

    def test_changed_coefficient_fails_verification(self):
        dist = Distribution(2, [X_DX, X_DY])
        verdict = involutivity_certificate(dist, 0)
        ((pair, coeffs),) = verdict.pairs.items()
        changed = InvolutivityCertificate(
            verdict.degree_bound, {pair: (coeffs[0] + 1,) + coeffs[1:]})
        assert verdict.verify(dist) and not changed.verify(dist)

    def test_certificate_commuting(self):
        dist = Distribution(2, [D_X, D_Y])
        verdict = involutivity_certificate(dist, 0)
        assert isinstance(verdict, InvolutivityCertificate)
        assert verdict.pairs[(0, 1)] == (Poly.zero(2), Poly.zero(2))

    def test_counterexample_at_origin(self):
        dist = Distribution(2, [D_X, X_DY])
        for degree in (0, 1, 2):
            verdict = involutivity_certificate(dist, degree)
            assert isinstance(verdict, CounterexamplePoint)
            assert verdict.point == (0, 0)

    def test_counterexample_soundness(self):
        dist = Distribution(2, [D_X, X_DY])
        verdict = involutivity_certificate(dist, 0)
        i, j = verdict.pair
        bracket = lie_bracket(dist.gens[i], dist.gens[j])
        base = dist.matrix_at(verdict.point)
        augmented = [row + [v] for row, v in
                     zip(base, bracket.value_at(verdict.point))]
        assert (verdict.rank_without, verdict.rank_with) == \
            (dense_rank(base), dense_rank(augmented))
        assert dense_rank(augmented) > dense_rank(base)

    def test_polynomial_coefficients_found_at_higher_degree(self):
        # [x d/dx, x^2 d/dy] = x^2 d/dy needs a degree-0 coefficient; with the
        # generator x d/dy instead, the coefficient is x itself (degree 1)
        dist = Distribution(2, [X_DX, VectorField([Z2, X])])
        verdict = involutivity_certificate(dist, 1)
        assert isinstance(verdict, InvolutivityCertificate)
        assert verdict.verify(dist)

    def test_single_generator_trivially_certified(self):
        verdict = involutivity_certificate(Distribution(2, [X_DX]), 0)
        assert isinstance(verdict, InvolutivityCertificate)
        assert verdict.pairs == {}

    def test_inconclusive_verdict(self):
        # [d/dx, x^2 d/dx] = 2x d/dx: never a degree-0 combination, yet always in
        # the pointwise span because d/dx never vanishes, so no counterexample
        # exists and degree 0 must come back inconclusive
        x1 = Poly.variable(1, 0)
        dist = Distribution(1, [VectorField([Poly.one(1)]), VectorField([x1 ** 2])])
        verdict = involutivity_certificate(dist, 0)
        assert verdict == NotFoundUpTo(0)
        # degree 1 finds the combination 2x * d/dx
        verdict1 = involutivity_certificate(dist, 1)
        assert isinstance(verdict1, InvolutivityCertificate)
        assert verdict1.pairs[(0, 1)] == (2 * x1, Poly.zero(1))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=2).flatmap(
    lambda m: st.lists(vector_fields(m, max_degree=2, max_terms=2),
                       min_size=2, max_size=3)))
def test_search_finds_the_first_rank_rise(gens):
    # a certified pair has its bracket in the span at every point, so the
    # verdict is the first pair, then the first grid point, where the dense
    # reference sees the rank rise; with no such point there is no refutation
    dist = Distribution(gens[0].num_vars, gens)
    first = None
    for i, j in itertools.combinations(range(len(gens)), 2):
        bracket = lie_bracket(gens[i], gens[j])
        for pt in default_search_grid(dist.num_vars):
            base = dist.matrix_at(pt)
            augmented = [row + [v] for row, v in zip(base, bracket.value_at(pt))]
            if dense_rank(augmented) > dense_rank(base):
                first = CounterexamplePoint((i, j), pt, dense_rank(base),
                                            dense_rank(augmented))
                break
        if first is not None:
            break
    verdict = involutivity_certificate(dist, 0)
    if first is None:
        assert not isinstance(verdict, CounterexamplePoint)
    else:
        assert verdict == first


class TestStrata:
    def test_grid_sample(self):
        dist = Distribution(2, [X_DX, X_DY])
        vals = [Fraction(-1), Fraction(0), Fraction(1)]
        grid = [(a, b) for a in vals for b in vals]
        report = strata_sample(dist, grid)
        assert sorted(report.by_rank) == [0, 2]
        assert len(report.by_rank[0]) == 3       # the x = 0 line
        assert len(report.by_rank[2]) == 6
        assert all(p[0] == 0 for p in report.by_rank[0])

    def test_constant_rank(self):
        dist = Distribution(2, [D_X])
        report = strata_sample(dist, [(Fraction(k), Fraction(0)) for k in range(-2, 3)])
        assert list(report.by_rank) == [1]

    def test_no_generators(self):
        dist = Distribution(2, [])
        report = strata_sample(dist, [(Fraction(0), Fraction(0))])
        assert list(report.by_rank) == [0]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            strata_sample(Distribution(2, [D_X]), [])

    def test_each_point_in_exactly_one_stratum(self):
        dist = Distribution(2, [X_DX, X_DY])
        grid = grid_points([(Fraction(-1), Fraction(1), Fraction(1))] * 2)
        report = strata_sample(dist, grid)
        seen = [p for pts in report.by_rank.values() for p in pts]
        assert sorted(seen) == sorted(grid)

    def test_semicontinuity_spot_check(self):
        # nearby generic points (x != 0) dominate the rank at special points
        dist = Distribution(2, [X_DX, X_DY])
        for special, generic in [((0, 0), (Fraction(1, 7), 0)),
                                 ((0, 1), (Fraction(1, 7), 1))]:
            assert rank_at(dist, generic) >= rank_at(dist, special)


def test_grid_points_row_major():
    pts = grid_points([(Fraction(0), Fraction(1), Fraction(1)),
                       (Fraction(0), Fraction(1), Fraction(1))])
    assert pts == [(0, 0), (0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize("step", [Fraction(0), Fraction(-1, 2)])
def test_grid_points_rejects_non_positive_step(step):
    with pytest.raises(ValueError, match="grid step must be positive"):
        grid_points([(Fraction(0), Fraction(1), Fraction(1)),
                     (Fraction(0), Fraction(1), step)])


def test_default_search_grid_is_cached_and_unshared():
    values = [Fraction(v) for v in (0, 1, -1, 2, -2)] + [Fraction(1, 2), Fraction(-1, 2)]
    expected = sorted(((a, b) for a in values for b in values),
                      key=lambda p: (sum(abs(c) for c in p), p))
    first = default_search_grid(2)
    assert first == expected and first[0] == (0, 0)
    first.reverse()
    first.append((Fraction(9), Fraction(9)))
    assert default_search_grid(2) == expected
    assert default_search_grid(2) is not default_search_grid(2)
    assert len(default_search_grid(3)) == 7 ** 3
