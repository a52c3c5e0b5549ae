"""Flow jets, the Picard series oracle, defect identities, stratum invariance."""

import random
from fractions import Fraction
from functools import partial
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlift import flows
from jetlift.algebra import Poly, TruncSeries, series_compose
from jetlift.errors import (DimensionError, JetliftError, LimitError, OrderError,
                            PreconditionError)
from jetlift.flows import (flow_jet, flow_series_picard, jet_defect,
                           stratum_invariance_check, verify_dj)
from jetlift.frobenius import Distribution
from jetlift.jets import Jet, jet_difference, jet_from_series, jet_project
from jetlift.limits import MAX_ORDER
from jetlift.vectorfields import JetTower, VectorField, apply_derivation, iterated_bracket

from strategies import fractions, points, polys, vector_fields

X = Poly.variable(2, 0)
Y = Poly.variable(2, 1)


def field(*comps):
    return VectorField(list(comps))


class TestFlowJet:
    def test_straight_line(self):
        d = field(Poly.one(2), Poly.zero(2))
        assert flow_jet(d, [0, 0], 3) == Jet(2, 3, [(0, 0), (1, 0), (0, 0), (0, 0)])

    def test_exponential(self):
        d = VectorField([Poly.variable(1, 0)])
        assert flow_jet(d, [1], 4) == Jet(1, 4, [(1,)] * 5)

    def test_rotation(self):
        d = field(Y, -X)
        assert flow_jet(d, [1, 0], 2) == Jet(2, 2, [(1, 0), (0, -1), (-1, 0)])

    def test_first_order_is_field_value(self):
        d = field(X * Y, X - Y)
        j = flow_jet(d, [Fraction(2), Fraction(-1, 2)], 1)
        assert j.coords[1] == d.value_at([Fraction(2), Fraction(-1, 2)])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            flow_jet(field(X, Y), [1], 2)

    def test_dimension_mismatch_names_the_field(self):
        text = "^point has 1 coordinates, field has 2 variables$"
        with pytest.raises(DimensionError, match=text):
            flow_jet(field(X, Y), [1], 2)
        with pytest.raises(DimensionError, match=text):
            flow_series_picard(field(X, Y), [1], 2)

    def test_negative_order(self):
        with pytest.raises(OrderError, match="order must be >= 0"):
            flow_jet(field(X, Y), [1, 0], -1)
        with pytest.raises(OrderError, match="order must be >= 0"):
            flow_series_picard(field(X, Y), [1, 0], -1)
        assert issubclass(OrderError, JetliftError)
        assert issubclass(OrderError, ValueError)

    def test_laurent_field_rejected(self):
        # like the Picard oracle, the engine expands only polynomial fields
        inv = Poly(1, {(-1,): 1}, laurent=True)
        with pytest.raises(ValueError, match="non-negative exponents"):
            flow_jet(VectorField([inv]), [1], 2)


def reference_flow_jet(d, point, order):
    """Untruncated reference: build D^i x_k whole, then evaluate at the point."""
    m = d.num_vars
    pt = tuple(Fraction(c) for c in point)
    rows = [pt]
    powers = [Poly.variable(m, k) for k in range(m)]
    for _ in range(order):
        powers = [apply_derivation(d, p) for p in powers]
        rows.append(tuple(p.eval(pt) for p in powers))
    return Jet(m, order, rows)


@st.composite
def jet_cases(draw):
    """A field with one term of total degree above the order, a point, an order.

    Lower-degree parts shrink with the dimension so that the untruncated
    reference stays small.
    """
    m = draw(st.integers(min_value=1, max_value=3))
    order = draw(st.integers(min_value=0, max_value=6))
    d = draw(vector_fields(m, max_degree=3 - m + 1, max_terms=2))
    exps = [0] * m
    exps[draw(st.integers(min_value=0, max_value=m - 1))] = order + 1
    high = Poly.monomial(m, exps, draw(fractions().filter(bool)))
    k = draw(st.integers(min_value=0, max_value=m - 1))
    comps = list(d.components)
    comps[k] = comps[k] + high
    if draw(st.booleans()):
        pt = (0,) * m
    else:
        pt = draw(points(m, 2, 2))
    return VectorField(comps), pt, order


@settings(max_examples=60, deadline=None)
@given(jet_cases())
def test_truncated_engine_matches_untruncated_reference(case):
    d, pt, order = case
    assert flow_jet(d, pt, order) == reference_flow_jet(d, pt, order)


def test_flow_jet_halves_each_power(monkeypatch):
    # y^k is the product of y^(k // 2) and y^(k - k // 2), down to y, so the
    # recurrence holds at most two series per halving, and a series takes
    # 2 * (n + 1) products at step n, n < order; a chain that multiplies in
    # one coordinate at a time would build about k series
    products = []
    monkeypatch.setattr(flows, "mul", lambda a, b: products.append(1) or a * b)
    x = Poly.variable(1, 0)
    assert flow_jet(VectorField([x ** 3000]), [3], 2) == \
        Jet(1, 2, [(3,), (3 ** 3000,), (3000 * 3 ** 5999,)])
    assert len(products) <= 2 * (3000).bit_length() * 2 * 3
    products.clear()
    k = 2 ** 20
    assert flow_jet(VectorField([x ** k]), [1], 3) == \
        Jet(1, 3, [(1,), (1,), (k,), (k * (2 * k - 1),)])
    assert len(products) <= 2 * k.bit_length() * 3 * 4


@st.composite
def recurrence_cases(draw):
    """A field on 1-4 variables, some components zero, with mixed coefficient
    denominators and one monomial of total degree up to 12; a point with a
    denominator of its own per coordinate, some coordinates zero; an order."""
    m = draw(st.integers(min_value=1, max_value=4))
    comps = draw(st.lists(st.one_of(st.just(Poly.zero(m)),
                                    polys(m, max_degree=2, max_terms=3)),
                          min_size=m, max_size=m))
    degree = draw(st.integers(min_value=0, max_value=12))
    exps = [0] * m
    for k in draw(st.lists(st.integers(min_value=0, max_value=m - 1),
                           min_size=degree, max_size=degree)):
        exps[k] += 1
    k = draw(st.integers(min_value=0, max_value=m - 1))
    comps[k] = comps[k] + Poly.monomial(m, exps, draw(fractions(5, 7).filter(bool)))
    pt = draw(st.lists(st.one_of(st.just(Fraction(0)), fractions(5, 7)),
                       min_size=m, max_size=m))
    return VectorField(comps), tuple(pt), draw(st.integers(min_value=0, max_value=8))


@settings(max_examples=100, deadline=None)
@given(recurrence_cases())
def test_recurrence_equals_the_picard_oracle(case):
    d, pt, order = case
    assert flow_jet(d, pt, order) == jet_from_series(flow_series_picard(d, pt, order))


@st.composite
def taylor_shift_cases(draw):
    m = draw(st.integers(min_value=1, max_value=3))
    return (draw(polys(m, max_degree=4)), draw(points(m)),
            draw(st.integers(min_value=0, max_value=5)))


@settings(max_examples=60, deadline=None)
@given(taylor_shift_cases())
def test_taylor_shift_is_the_truncated_substitution(case):
    # check (c) of verify_dj moves a field by the Taylor shift; it must keep
    # exactly the terms of p(x + pt) of total degree <= n
    p, pt, n = case
    m = p.num_vars
    moved = p.substitute([Poly.variable(m, k) + Poly.constant(m, c)
                          for k, c in enumerate(pt)])
    assert flows._taylor_shift(p, pt, n) == Poly(
        m, {e: c for e, c in moved.terms.items() if sum(e) <= n})


def test_high_exponent_jet_matches_picard():
    d = field(X ** 60 * Y + Poly.one(2), X * Y ** 45)
    pt = [Fraction(2), Fraction(-1, 3)]
    assert flow_jet(d, pt, 4) == jet_from_series(flow_series_picard(d, pt, 4))


class TestPicard:
    def test_straight_line(self):
        d = field(Poly.one(2), Poly.zero(2))
        s = flow_series_picard(d, [0, 0], 1)
        assert s == TruncSeries(2, 1, [(0, 0), (1, 0)])

    def test_exponential_coefficients(self):
        d = VectorField([Poly.variable(1, 0)])
        s = flow_series_picard(d, [1], 3)
        assert s.component(0) == [Fraction(1, factorial(i)) for i in range(4)]

    def test_nilpotent_integration(self):
        # x' = 1, y' = x from the origin: x = t, y = t^2/2
        d = field(Poly.one(2), X)
        s = flow_series_picard(d, [0, 0], 3)
        assert s.component(0) == [0, 1, 0, 0]
        assert s.component(1) == [0, 0, Fraction(1, 2), 0]

    def test_order_limit(self):
        # checked before the (order + 1)^2 binomial table is built
        d = VectorField([Poly.variable(1, 0)])
        with pytest.raises(LimitError, match=f"Picard series order is {MAX_ORDER + 1}, "
                                             f"above the limit MAX_ORDER = {MAX_ORDER}"):
            flow_series_picard(d, [1], MAX_ORDER + 1)
        assert flow_series_picard(d, [1], MAX_ORDER).order == MAX_ORDER


def reference_picard(d, point, order):
    """Full-order Picard iteration: order + 1 rounds, each at the full order."""
    pt = tuple(Fraction(c) for c in point)
    gamma = TruncSeries(d.num_vars, order, [pt] + [(0,) * d.num_vars] * order)
    for _ in range(order + 1):
        cols = []
        for k, comp in enumerate(d.components):
            rhs = comp.compose_series(gamma).component(0)
            cols.append([pt[k]] + [rhs[j] / (j + 1) for j in range(order)])
        gamma = TruncSeries(d.num_vars, order, list(zip(*cols)))
    return gamma


@st.composite
def picard_cases(draw):
    """A field, point and order for the integer oracle.

    Dimensions 1-3, total degree 0-3, orders 0-8.  The zero field and constant
    fields (top degree 0, where the scaling uses d = 1) are drawn on purpose;
    point denominators run 1-9, and the origin is drawn on purpose.
    """
    m = draw(st.integers(min_value=1, max_value=3))
    kind = draw(st.sampled_from(["zero", "constant"] + ["general"] * 4))
    degree = draw(st.integers(min_value=1, max_value=3)) if kind == "general" else 0
    monos = [e for e in product(range(degree + 1), repeat=m) if sum(e) <= degree]
    comps = []
    for _ in range(m):
        terms = {} if kind == "zero" else draw(
            st.dictionaries(st.sampled_from(monos), fractions(), max_size=3))
        comps.append(Poly(m, terms))
    if draw(st.booleans()):
        pt = (0,) * m
    else:
        pt = draw(st.tuples(*[st.builds(Fraction, st.integers(-9, 9),
                                        st.integers(1, 9))] * m))
    return VectorField(comps), pt, draw(st.integers(min_value=0, max_value=8))


@settings(max_examples=200, deadline=None)
@given(picard_cases())
def test_integer_oracle_matches_fraction_reference(case):
    d, pt, order = case
    assert flow_series_picard(d, pt, order) == reference_picard(d, pt, order)


@st.composite
def divided_power_cases(draw):
    """Integer term dicts in 1-2 variables, one integer series per variable."""
    n = draw(st.integers(min_value=1, max_value=2))
    order = draw(st.integers(min_value=0, max_value=6))
    ints = st.integers(-9, 9)
    term_dicts = draw(st.lists(
        st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), ints, max_size=4),
        min_size=1, max_size=3))
    series = [draw(st.lists(ints, min_size=order + 1, max_size=order + 1))
              for _ in range(n)]
    return term_dicts, series, order


@settings(max_examples=100, deadline=None)
@given(divided_power_cases())
def test_divided_power_composition_matches_ordinary(case):
    # h_i = i! * a_i turns the Cauchy product into the divided-power one, so
    # composing the h with the Picard round's product gives j! times
    # coefficient j of the ordinary composition of the a, and stays on ints
    term_dicts, series, order = case
    binom = [[comb(n, i) for i in range(n + 1)] for n in range(order + 1)]
    divided = series_compose(term_dicts, series, order, 0,
                             partial(flows._hurwitz_mul, binom))
    ordinary = series_compose(
        term_dicts, [[Fraction(h, factorial(i)) for i, h in enumerate(col)]
                     for col in series], order, Fraction(0))
    assert divided == [[factorial(j) * c for j, c in enumerate(acc)]
                       for acc in ordinary]
    assert all(type(v) is int for acc in divided for v in acc)


@pytest.mark.parametrize("order", [0, 3])
def test_picard_laurent_field_rejected(order):
    inv = Poly(2, {(-1, 0): 1, (1, 1): 2}, laurent=True)
    with pytest.raises(ValueError, match="non-negative exponents"):
        flow_series_picard(field(Poly.one(2), inv), [1, 1], order)


def test_progressive_picard_matches_full_order_iteration():
    rng = random.Random(8061)
    for order in range(9):
        for m in (1, 2, 3):
            d = _random_field(rng, m, max_degree=2)
            pt = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                       for _ in range(m))
            assert flow_series_picard(d, pt, order) == reference_picard(d, pt, order)


@settings(max_examples=40, deadline=None)
@given(vector_fields(2, max_degree=2, max_terms=2), points(2, 2, 2),
       st.integers(min_value=0, max_value=5))
def test_oracle_equivalence(d, pt, order):
    assert jet_from_series(flow_series_picard(d, pt, order)) == flow_jet(d, pt, order)


@settings(max_examples=30, deadline=None)
@given(vector_fields(2, max_degree=2, max_terms=2), points(2, 2, 2))
def test_tower_consistency(d, pt):
    top = flow_jet(d, pt, 4)
    for m in range(5):
        assert jet_project(top, m) == flow_jet(d, pt, m)


@settings(max_examples=30, deadline=None)
@given(vector_fields(2, max_degree=2, max_terms=2), points(2, 2, 2),
       st.integers(min_value=-3, max_value=3))
def test_reparametrization_scaling(d, pt, c):
    base = flow_jet(d, pt, 3)
    scaled = flow_jet(d.scale(Fraction(c)), pt, 3)
    for i in range(4):
        assert scaled.coords[i] == tuple(Fraction(c) ** i * v for v in base.coords[i])


class TestDefect:
    def test_worked_example_order_one(self):
        d1 = field(Poly.one(2), Poly.zero(2))
        d2 = field(Poly.one(2), X)
        assert jet_defect(d1, d2, [0, 0], 1).vec == (0, 1)

    def test_worked_example_order_two(self):
        d1 = field(Poly.one(2), Poly.zero(2))
        d2 = field(Poly.one(2), X ** 2)
        assert jet_defect(d1, d2, [0, 0], 2).vec == (0, 2)

    def test_equal_fields(self):
        d = field(X, Y)
        assert jet_defect(d, d, [1, 2], 2).vec == (0, 0)

    def test_precondition_names_first_bad_order(self):
        d1 = field(Poly.one(2), Poly.zero(2))
        d2 = field(Poly.one(2), X)
        with pytest.raises(PreconditionError, match="order 2"):
            jet_defect(d1, d2, [0, 0], 2)


def _random_poly(rng, num_vars, max_degree, max_terms):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_degree) for _ in range(num_vars))
        if sum(e) > max_degree:
            continue
        terms[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly(num_vars, terms)


def _random_field(rng, num_vars, max_degree=3, max_terms=2):
    return VectorField([_random_poly(rng, num_vars, max_degree, max_terms)
                        for _ in range(num_vars)])


def perturbation_in_maximal_ideal_power(rng, num_vars, point, order,
                                        max_degree=1, max_terms=1):
    """Random field with every coefficient in the order-th power of the maximal
    ideal at `point`: random fields times degree-`order` monomials in (x - point)."""
    shifted = [Poly.variable(num_vars, k) - point[k] for k in range(num_vars)]
    comps = []
    for _ in range(num_vars):
        exps = [0] * num_vars
        for _ in range(order):
            exps[rng.randrange(num_vars)] += 1
        mono = Poly.one(num_vars)
        for k, e in enumerate(exps):
            mono = mono * shifted[k] ** e
        comps.append(mono * _random_poly(rng, num_vars, max_degree, max_terms))
    return VectorField(comps)


def test_randomized_defect_identity():
    rng = random.Random(20240)
    for _ in range(40):
        m = rng.choice([1, 2, 3])
        n = rng.choice([1, 2, 3, 4])
        pt = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(m))
        d1 = _random_field(rng, m)
        d2 = d1 + perturbation_in_maximal_ideal_power(rng, m, pt, n)
        report = verify_dj(d1, d2, pt, n)
        assert report.agree
        assert report.from_bracket == iterated_bracket(d1, d2, n + 1).value_at(pt)


def _defect_cases():
    rng = random.Random(5150)
    for _ in range(12):
        m = rng.choice([1, 2, 3])
        n = rng.choice([1, 2, 3])
        pt = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(m))
        d1 = _random_field(rng, m)
        yield d1, d1 + perturbation_in_maximal_ideal_power(rng, m, pt, n), pt, n


def _raises(*args, **kwargs):
    raise AssertionError("an independent evaluation called shared code")


def test_defect_evaluations_are_independent(monkeypatch):
    # ROADMAP aim 3: the Picard oracle and the bracket check (c) must run
    # without the point recurrence or the jet tower, the recurrence and the
    # oracle without Poly.eval, and the recurrence without the oracle's code
    cases = [(d1, d2, pt, n, verify_dj(d1, d2, pt, n)) for d1, d2, pt, n in _defect_cases()]
    assert any(any(pt) and any(report.from_jets) for _, _, pt, _, report in cases)

    def picard_defect(d1, d2, pt, n):
        return jet_difference(jet_from_series(flow_series_picard(d2, pt, n + 1)),
                              jet_from_series(flow_series_picard(d1, pt, n + 1))).vec

    with monkeypatch.context() as patch:
        patch.setattr(flows, "flow_jet", _raises)
        patch.setattr(JetTower, "extended", _raises)
        for d1, d2, pt, n, report in cases:
            assert picard_defect(d1, d2, pt, n) == report.from_jets
            moved = [VectorField([flows._taylor_shift(c, pt, n) for c in d.components])
                     for d in (d1, d2)]
            bracket = iterated_bracket(*moved, n + 1, (1,) * len(pt))
            assert tuple(c.constant_term() for c in bracket.components) == \
                report.from_bracket
    with monkeypatch.context() as patch:
        patch.setattr(Poly, "eval", _raises)
        for d1, d2, pt, n, report in cases:
            assert picard_defect(d1, d2, pt, n) == report.from_jets
            top = [flow_jet(d, pt, n + 1).coords[-1] for d in (d1, d2)]
            assert tuple(b - a for a, b in zip(*top)) == report.from_derivation_powers
    with monkeypatch.context() as patch:
        for name in ("flow_series_picard", "_hurwitz_mul", "_hurwitz_round",
                     "series_compose"):
            patch.setattr(flows, name, _raises)
        patch.setattr(JetTower, "extended", _raises)
        for d1, d2, pt, n, report in cases:
            top = [flow_jet(d, pt, n + 1).coords[-1] for d in (d1, d2)]
            assert tuple(b - a for a, b in zip(*top)) == report.from_derivation_powers


def test_verify_dj_precondition_message():
    d1 = field(Poly.one(2), Poly.zero(2))
    d2 = field(Poly.one(2), X)
    with pytest.raises(PreconditionError) as err:
        verify_dj(d1, d2, [0, 0], 2)
    assert str(err.value) == "flow jets differ at order 2: (0,0) != (0,1)"


def test_verify_dj_commuting_fields_zero():
    d1 = field(Poly.one(2), Poly.zero(2))
    d2 = field(Poly.one(2), Poly.zero(2))
    report = verify_dj(d1, d2, [Fraction(1, 3), 2], 3)
    assert report.agree and report.from_jets == (0, 0)


class TestStratumInvariance:
    def test_involutive_plane_field(self):
        # <d/dx, y d/dz> from the origin along d/dx: the only nonzero 2x2 minor is
        # y, and y vanishes identically along the flow (t, 0, 0)
        z3 = Poly.zero(3)
        gens = [VectorField([Poly.one(3), z3, z3]),
                VectorField([z3, z3, Poly.variable(3, 1)])]
        dist = Distribution(3, gens)
        combo = [Poly.one(3), Poly.zero(3)]
        report = stratum_invariance_check(dist, combo, [0, 0, 0], 10)
        assert report.rank == 1 and report.invariant
        assert report.minors_checked == 3

    def test_rank_zero_point(self):
        z2 = Poly.zero(2)
        gens = [VectorField([X, z2]), VectorField([z2, X])]
        dist = Distribution(2, gens)
        report = stratum_invariance_check(dist, [X, Poly.zero(2)], [0, 1], 10)
        assert report.rank == 0 and report.invariant
        assert report.minors_checked == 4  # all 1x1 entries

    def test_full_rank_vacuous(self):
        z2 = Poly.zero(2)
        gens = [VectorField([Poly.one(2), z2]), VectorField([z2, Poly.one(2)])]
        dist = Distribution(2, gens)
        report = stratum_invariance_check(dist, [Poly.one(2), Poly.zero(2)], [0, 0], 5)
        assert report.rank == 2 and report.invariant and report.minors_checked == 0

    def test_non_involutive_witness_violates(self):
        z2 = Poly.zero(2)
        gens = [VectorField([Poly.one(2), z2]), VectorField([z2, X])]
        dist = Distribution(2, gens)
        report = stratum_invariance_check(dist, [Poly.one(2), Poly.zero(2)],
                                          [0, 0], 10)
        assert report.rank == 1 and not report.invariant
        v = report.violations[0]
        assert v.first_nonzero_order == 1 and v.coefficient == 1

    def test_combination_on_the_wrong_space_rejected(self):
        z2 = Poly.zero(2)
        dist = Distribution(2, [VectorField([Poly.one(2), z2]), VectorField([z2, X])])
        with pytest.raises(DimensionError, match="live on the wrong space"):
            stratum_invariance_check(dist, [Poly.one(3), Poly.zero(2)], [0, 0], 4)
