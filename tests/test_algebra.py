"""Polynomial and truncated-series arithmetic: examples, errors, and ring laws."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlift.algebra import (Poly, TruncSeries, monomial_inverse, series_compose,
                             series_mul)
from jetlift.errors import DimensionError

from strategies import exponent_tuples, fractions, points, polys

X = Poly.variable(1, 0)
X2 = Poly.variable(2, 0)
Y2 = Poly.variable(2, 1)


class TestPolyBasics:
    def test_add_inverse(self):
        assert X + (-X) == Poly.zero(1)

    def test_difference_of_squares(self):
        assert (X + 1) * (X - 1) == X ** 2 - 1

    def test_scale(self):
        assert (2 * X) * Fraction(3, 2) == 3 * X

    def test_zero_coefficients_dropped(self):
        p = Poly(1, {(1,): Fraction(1), (0,): Fraction(0)})
        assert (1,) in p.terms and (0,) not in p.terms

    def test_mismatched_vars_rejected(self):
        with pytest.raises(DimensionError):
            X + X2

    def test_negative_exponents_need_laurent(self):
        with pytest.raises(ValueError):
            Poly(1, {(-1,): 1})
        assert Poly(1, {(-1,): 1}, laurent=True).terms == {(-1,): Fraction(1)}

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Poly(1, {(1,): 0.5})

    def test_equality_is_termwise(self):
        assert Poly(2, {(1, 0): 2}) == 2 * X2
        assert Poly(2, {(1, 0): 2}) != Poly(2, {(0, 1): 2})

    def test_constant_hashes_like_its_scalar(self):
        assert Poly.constant(1, 3) == 3 and hash(Poly.constant(1, 3)) == hash(3)
        half = Fraction(1, 2)
        assert hash(Poly.constant(2, half)) == hash(half)
        assert Poly.zero(2) == 0 and hash(Poly.zero(2)) == hash(0)
        assert len({Poly.constant(1, 3), 3, Poly.zero(1), 0}) == 2


class TestPartial:
    def test_power_rule(self):
        assert (X2 ** 2 * Y2).partial(0) == 2 * X2 * Y2

    def test_absent_variable(self):
        assert (X2 ** 2).partial(1) == Poly.zero(2)

    def test_univariate(self):
        assert (X ** 3 - 3 * X).partial(0) == 3 * X ** 2 - 3

    def test_laurent_power_rule(self):
        p = Poly(1, {(-1,): 1}, laurent=True)
        assert p.partial(0) == Poly(1, {(-2,): -1}, laurent=True)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            X.partial(1)


class TestEval:
    def test_unit_point(self):
        assert (X2 ** 2 + Y2 ** 2).eval([1, 0]) == 1

    def test_rational_point(self):
        assert (X2 ** 2 + Y2 ** 2).eval([Fraction(3, 2), Fraction(1, 2)]) == Fraction(5, 2)

    def test_zero_everywhere(self):
        assert Poly.zero(2).eval([Fraction(7, 3), -2]) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            X2.eval([1])

    def test_zero_poly_gives_a_fraction(self):
        for m in range(4):
            value = Poly.zero(m).eval([Fraction(5, 3)] * m)
            assert value == 0 and type(value) is Fraction

    def test_negative_power_of_zero_coordinate(self):
        p = Poly(2, {(1, -2): 1, (0, 3): Fraction(1, 2)}, laurent=True)
        with pytest.raises(ZeroDivisionError):
            p.eval([3, 0])
        assert p.eval([0, 2]) == 4

    def test_laurent_point(self):
        p = Poly(2, {(-1, 2): Fraction(2, 3), (3, -1): -1, (0, 0): 5}, laurent=True)
        assert p.eval([Fraction(-2, 3), Fraction(5, 4)]) == Fraction(
            2, 3) * Fraction(-3, 2) * Fraction(25, 16) + Fraction(8, 27) * Fraction(4, 5) + 5


def reference_eval(p, pt):
    """Term by term on Fractions: sum of c * prod_k pt_k^e_k."""
    total = Fraction(0)
    for e, c in p.terms.items():
        v = c
        for base, k in zip(pt, e):
            v *= Fraction(base) ** k
        total += v
    return total


def sparse_points(dim):
    # each coordinate zero or with a denominator of its own
    return st.lists(st.one_of(st.just(0), fractions(7, 7)),
                    min_size=dim, max_size=dim).map(tuple)


@st.composite
def laurent_eval_cases(draw):
    m = draw(st.integers(min_value=0, max_value=3))
    return (draw(polys(m, max_degree=4, max_terms=6, laurent=True)),
            draw(sparse_points(m)))


@settings(max_examples=200)
@given(laurent_eval_cases())
def test_eval_matches_the_term_by_term_reference(case):
    # Poly.eval runs on ints over one common denominator; a negative power of a
    # zero coordinate raises ZeroDivisionError there as it does on Fractions
    p, pt = case
    try:
        want = reference_eval(p, pt)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            p.eval(pt)
        return
    got = p.eval(pt)
    assert got == want and type(got) is Fraction


class TestComposeSeries:
    def test_truncated_square(self):
        gamma = TruncSeries(1, 1, [(1,), (1,)])  # 1 + t
        assert (X ** 2).compose_series(gamma) == TruncSeries(1, 1, [(1,), (2,)])

    def test_rotation_conserves_radius(self):
        # cos, -sin to order 4; x^2 + y^2 along it must be the constant 1
        cos = [Fraction((-1) ** (k // 2), factorial(k)) if k % 2 == 0 else Fraction(0)
               for k in range(5)]
        msin = [Fraction(-(-1) ** ((k - 1) // 2), factorial(k)) if k % 2 == 1 else Fraction(0)
                for k in range(5)]
        gamma = TruncSeries(2, 4, list(zip(cos, msin)))
        composed = (X2 ** 2 + Y2 ** 2).compose_series(gamma)
        assert composed == TruncSeries(1, 4, [(1,), (0,), (0,), (0,), (0,)])

    def test_constant_series_is_evaluation(self):
        gamma = TruncSeries(2, 3, [(Fraction(2), Fraction(-1, 3))] + [(0, 0)] * 3)
        f = X2 ** 2 * Y2 - Y2 + 1
        composed = f.compose_series(gamma)
        assert composed.coeffs[0][0] == f.eval([Fraction(2), Fraction(-1, 3)])
        assert all(c == (0,) for c in composed.coeffs[1:])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            X.compose_series(TruncSeries(2, 2, [(1, 2), (0, 0), (0, 0)]))

    def test_negative_exponent_needs_inverse(self):
        inv = Poly(1, {(-1,): 1}, laurent=True)
        with pytest.raises(ValueError, match="non-negative exponents"):
            inv.compose_series(TruncSeries(1, 2, [(1,), (0,), (0,)]))
        with pytest.raises(ValueError, match="non-negative exponents"):
            series_compose([inv.terms], [[Fraction(1), Fraction(1)]], 1, Fraction(0))


def reference_series_inverse(a, order, zero, invert_leading):
    """Inverse of a truncated series on Taylor coefficients: a * b = 1."""
    inv0 = invert_leading(a[0])
    out = [inv0] + [zero] * order
    for n in range(1, order + 1):
        s = zero
        for k in range(1, min(n, len(a) - 1) + 1):
            s = s + a[k] * out[n - k]
        out[n] = -(inv0 * s)
    return out


def reference_poly_on_series(g, series, order, zero, one, invert_leading):
    """Per-term reference composer: every power rebuilt from `one` for each term."""
    inverses = {}

    def var_power(j, e):
        if e < 0 and j not in inverses:
            inverses[j] = reference_series_inverse(list(series[j]), order, zero,
                                                   invert_leading)
        base = series[j] if e >= 0 else inverses[j]
        out = [one] + [zero] * order
        for _ in range(abs(e)):
            out = series_mul(out, base, order, zero)
        return out

    acc = [zero] * (order + 1)
    for exps, c in g.terms.items():
        term = [one * c] + [zero] * order
        for j, e in enumerate(exps):
            if e:
                term = series_mul(term, var_power(j, e), order, zero)
        acc = [a + b for a, b in zip(acc, term)]
    return acc


def laurent_monomials():
    return st.builds(lambda e, c: Poly(1, {(e,): c}, laurent=True),
                     st.integers(-2, 2), fractions().filter(bool))


@st.composite
def composition_cases(draw):
    """A polynomial g in 1-2 variables, one series per variable over Q or over
    Laurent polynomials in one variable, each with an invertible leading
    coefficient."""
    n = draw(st.integers(min_value=1, max_value=2))
    order = draw(st.integers(min_value=0, max_value=5))
    g = draw(polys(n, max_degree=3, max_terms=4))
    if draw(st.booleans()):
        ring = (Fraction(0), Fraction(1), lambda c: 1 / c)
        lead, rest = fractions().filter(bool), fractions()
    else:
        ring = (Poly.zero(1), Poly.one(1), monomial_inverse)
        lead = laurent_monomials()
        rest = st.lists(laurent_monomials(), max_size=2).map(
            lambda ms: sum(ms, Poly.zero(1)))
    series = [[draw(lead)] + [draw(rest) for _ in range(order)] for _ in range(n)]
    return g, series, order, ring


@settings(max_examples=80, deadline=None)
@given(composition_cases())
def test_series_compose_matches_reference(case):
    g, series, order, (zero, one, invert_leading) = case
    assert (series_compose([g.terms], series, order, zero)
            == [reference_poly_on_series(g, series, order, zero, one, invert_leading)])


def reference_substitute(p, values):
    """Term by term: the coefficient times each value's power, summed in term order."""
    out_vars = values[0].num_vars
    acc = Poly.zero(out_vars)
    for exps, c in p.terms.items():
        term = Poly.constant(out_vars, c)
        for value, e in zip(values, exps):
            base = value if e >= 0 else monomial_inverse(value)
            for _ in range(abs(e)):
                term = term * base
        acc = acc + term
    return acc


@st.composite
def monomial_substitutions(draw):
    """A Laurent polynomial in 1-3 variables and one Laurent monomial per variable.

    Exponents and coefficients are small, so distinct terms often land on one
    key.  The first two values are often equal, and then a term and its mirror
    in the first two variables are added with opposite signs: they cancel.
    """
    n = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=3))
    small = st.sampled_from((1, -1, Fraction(1, 2), Fraction(-2, 3), 2))
    p = draw(st.dictionaries(exponent_tuples(n, 2, laurent=True), small,
                             max_size=8).map(lambda t: Poly(n, t, laurent=True)))
    values = [Poly.monomial(m, draw(exponent_tuples(m, 1, laurent=True)),
                            draw(st.sampled_from((1, -1, Fraction(3, 2)))),
                            laurent=True)
              for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        values[1] = values[0]
        for e in draw(st.lists(exponent_tuples(n, 2, laurent=True), max_size=3)):
            p = p + Poly(n, {e: 1, (e[1], e[0]) + e[2:]: -1}, laurent=True)
    return p, values


@settings(max_examples=150, deadline=None)
@given(monomial_substitutions())
def test_monomial_substitution_maps_exponents(case):
    p, values = case
    image = p.substitute(values)
    expected = reference_substitute(p, values)
    assert image == expected
    assert list(image.terms) == list(expected.terms)


class TestSubstitute:
    def test_cancelled_key_returns_at_the_end(self):
        # x and y both become z: z cancels, z^2 follows, and z comes back after it
        p = Poly(2, {(1, 0): 1, (0, 1): -1, (2, 0): 3, (-1, 2): 5}, laurent=True)
        image = p.substitute([X, X])
        assert image == Poly(1, {(2,): 3, (1,): 5})
        assert list(image.terms) == [(2,), (1,)]

    def test_negative_exponent_needs_a_monomial_value(self):
        p = Poly(1, {(-1,): 1}, laurent=True)
        with pytest.raises(ValueError, match="not an invertible monomial"):
            p.substitute([X + 1])
        with pytest.raises(ValueError, match="not an invertible monomial"):
            Poly(2, {(1, -2): 1}, laurent=True).substitute([X, X + 1])


@settings(max_examples=60)
@given(polys(2), polys(2), polys(2))
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=60)
@given(polys(3), polys(3), st.integers(min_value=0, max_value=2))
def test_leibniz(f, g, k):
    assert (f * g).partial(k) == f * g.partial(k) + g * f.partial(k)


@settings(max_examples=40)
@given(polys(2, max_degree=3, max_terms=4), polys(2, max_degree=3, max_terms=4),
       st.lists(st.lists(fractions(3, 2), min_size=2, max_size=2),
                min_size=4, max_size=4))
def test_composition_is_a_homomorphism(f, g, rows):
    gamma = TruncSeries(2, 3, rows)
    lhs = (f * g).compose_series(gamma)
    a = f.compose_series(gamma).component(0)
    b = g.compose_series(gamma).component(0)
    rhs = series_mul(a, b, 3, Fraction(0))
    assert list(lhs.component(0)) == rhs


@settings(max_examples=40)
@given(polys(2, max_degree=3, max_terms=4), points(2))
def test_composition_constant_term_is_evaluation(f, pt):
    gamma = TruncSeries(2, 2, [pt, (1, 2), (0, 1)])
    assert f.compose_series(gamma).coeffs[0][0] == f.eval(pt)


class TestSeriesHelpers:
    def test_monomial_inverse(self):
        p = Poly(1, {(2,): Fraction(3)})
        assert monomial_inverse(p) * p == Poly.one(1)
        with pytest.raises(ValueError):
            monomial_inverse(X + 1)


class TestRendering:
    def test_grammar_example(self):
        f = Fraction(3, 2) * X2 ** 2 * Y2 - Y2 + 1
        assert f.render(["x", "y"]) == "3/2*x^2*y - y + 1"

    def test_laurent_order(self):
        p = Poly(1, {(1,): 1, (0,): 1, (-1,): 1}, laurent=True)
        assert p.render(["z"]) == "z + 1 + z^-1"

    def test_compact(self):
        p = Poly(1, {(2,): 1, (0,): -1})
        assert p.render(["z"], compact=True) == "z^2-1"

    def test_zero(self):
        assert Poly.zero(2).render() == "0"
