"""Pointwise rank, stratification sampling, involutivity certificates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from jetlift import frobenius
from jetlift.algebra import Poly
from jetlift.errors import DimensionError, LimitError, OrderError
from jetlift.frobenius import (CounterexamplePoint, Distribution,
                               InvolutivityCertificate, NotFoundUpTo,
                               default_search_grid, grid_points,
                               involutivity_certificate, rank_at, strata_sample)
from jetlift.linalg import rank as matrix_rank
from jetlift.vectorfields import VectorField, lie_bracket

from strategies import points, vector_fields

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


@settings(max_examples=40)
@given(vector_fields(2), vector_fields(2), points(2, 2, 2))
def test_rank_bounded(d1, d2, pt):
    assert rank_at(Distribution(2, [d1, d2]), pt) <= 2


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
        assert matrix_rank(augmented) > matrix_rank(base)

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
