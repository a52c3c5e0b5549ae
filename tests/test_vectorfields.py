"""Derivations, brackets, time classification, and the graph embedding."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlift.algebra import Poly
from jetlift.cech import evaluate_along_curve
from jetlift.errors import ClassificationError, DimensionError
from jetlift.vectorfields import (TimeClass, VectorField, apply_derivation,
                                  derivation_powers, extend_constant_flow, graph_embed,
                                  iterated_bracket, lie_bracket,
                                  time_component_class)

from strategies import exponent_tuples, fractions, points, polys, vector_fields

X = Poly.variable(2, 0)
Y = Poly.variable(2, 1)
ZERO2 = Poly.zero(2)
ONE2 = Poly.one(2)


def field(*comps):
    return VectorField(list(comps))


ROTATION = field(Y, -X)
D_X = field(ONE2, ZERO2)        # d/dx
X_DY = field(ZERO2, X)          # x d/dy
X_DX = field(X, ZERO2)          # x d/dx


class TestDerivation:
    def test_rotation_conserves_radius(self):
        assert apply_derivation(ROTATION, X ** 2 + Y ** 2) == ZERO2

    def test_one_variable(self):
        x = Poly.variable(1, 0)
        assert apply_derivation(VectorField([x]), x) == x

    def test_expansion(self):
        d = field(ONE2, X)
        assert apply_derivation(d, Y) == X

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            apply_derivation(ROTATION, Poly.variable(1, 0))


class TestBracket:
    def test_dx_xdy(self):
        assert lie_bracket(D_X, X_DY) == field(ZERO2, ONE2)

    def test_self_bracket_vanishes(self):
        assert lie_bracket(ROTATION, ROTATION) == VectorField.zero(2)

    def test_xdx_xdy(self):
        assert lie_bracket(X_DX, X_DY) == X_DY

    def test_iterated_example(self):
        d2 = field(ZERO2, X ** 2)
        assert iterated_bracket(D_X, d2, 3) == field(ZERO2, 2 * ONE2)

    def test_iterated_base_case(self):
        assert iterated_bracket(D_X, X_DY, 2) == lie_bracket(D_X, X_DY)

    def test_commuting_fields_vanish_at_all_orders(self):
        d1, d2 = D_X, field(ZERO2, ONE2)
        for n in range(2, 6):
            assert iterated_bracket(d1, d2, n) == VectorField.zero(2)

    def test_n_below_two(self):
        with pytest.raises(ValueError):
            iterated_bracket(D_X, X_DY, 1)

    @pytest.mark.parametrize("weights", [(1,), (1, 2), (1, -1)],
                             ids=["short", "two", "negative"])
    def test_bracket_weights_are_zero_or_one_per_variable(self, weights):
        with pytest.raises(ValueError, match="bracket weights must be 2 values of 0 or 1"):
            iterated_bracket(D_X, X_DY, 2, weights)


@settings(max_examples=40)
@given(vector_fields(2), vector_fields(2), vector_fields(2))
def test_antisymmetry_and_jacobi(d1, d2, d3):
    assert lie_bracket(d1, d2) == -lie_bracket(d2, d1)
    jacobi = (lie_bracket(d1, lie_bracket(d2, d3))
              + lie_bracket(d2, lie_bracket(d3, d1))
              + lie_bracket(d3, lie_bracket(d1, d2)))
    assert jacobi == VectorField.zero(2)


@settings(max_examples=40)
@given(vector_fields(2), vector_fields(2), vector_fields(2),
       st.builds(Fraction, st.integers(min_value=-6, max_value=6),
                 st.integers(min_value=1, max_value=4)))
def test_rational_bilinearity(d1, d2, d3, c):
    lhs = lie_bracket(d1.scale(c) + d2, d3)
    assert lhs == lie_bracket(d1, d3).scale(c) + lie_bracket(d2, d3)
    rhs = lie_bracket(d3, d1.scale(c) + d2)
    assert rhs == lie_bracket(d3, d1).scale(c) + lie_bracket(d3, d2)


@settings(max_examples=40)
@given(vector_fields(2), vector_fields(2), polys(2))
def test_derivation_identity(d1, d2, f):
    lhs = apply_derivation(lie_bracket(d1, d2), f)
    rhs = (apply_derivation(d1, apply_derivation(d2, f))
           - apply_derivation(d2, apply_derivation(d1, f)))
    assert lhs == rhs


@st.composite
def weighted_power_cases(draw):
    m = draw(st.integers(min_value=1, max_value=3))
    weights = draw(st.lists(st.integers(min_value=0, max_value=1),
                            min_size=m, max_size=m))
    # denominators 1-9 mixed within one field, integer fields (scale 1) and the
    # zero field: every scale of the fraction-free engine, including none
    max_den = draw(st.sampled_from([1, 9]))
    coefficients = st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                             st.integers(min_value=1, max_value=max_den))
    components = st.lists(
        st.dictionaries(exponent_tuples(m, 4 - m), coefficients, max_size=3),
        min_size=m, max_size=m)
    terms = draw(st.one_of(st.just([{}] * m), components))
    return (VectorField([Poly(m, t) for t in terms]), weights,
            draw(st.integers(min_value=0, max_value=5)))


@settings(max_examples=100, deadline=None)
@given(weighted_power_cases())
def test_derivation_powers_are_weighted_truncations(case):
    d, weights, order = case
    m = d.num_vars
    powers = derivation_powers(d.components, order, weights)
    assert len(powers) == order + 1
    assert all(type(c) is Fraction
               for row in powers for p in row for c in p.terms.values())
    full = [Poly.variable(m, k) for k in range(m)]
    for i, row in enumerate(powers):
        cap = order - i
        assert row == [Poly(m, {e: c for e, c in p.terms.items()
                                if sum(w * x for w, x in zip(weights, e)) <= cap})
                       for p in full]
        full = [apply_derivation(d, p) for p in full]


def _repeated_bracket(d1, d2, n):
    result = lie_bracket(d1, d2)
    for _ in range(n - 2):
        result = lie_bracket(d1, result)
    return result


@st.composite
def bracket_at_point_cases(draw):
    m = draw(st.integers(min_value=1, max_value=3))
    fields = vector_fields(m, max_degree=4 - m, max_terms=3)
    return (draw(fields), draw(fields), draw(points(m)),
            draw(st.integers(min_value=2, max_value=5)))


@settings(max_examples=60, deadline=None)
@given(bracket_at_point_cases())
def test_weighted_bracket_at_the_point(case):
    # graded by total degree around the point, the truncated bracket keeps
    # exactly the constant terms: the bracket's value at the point
    d1, d2, pt, n = case
    m = d1.num_vars
    full = iterated_bracket(d1, d2, n)
    assert full == _repeated_bracket(d1, d2, n)
    shift = [Poly.variable(m, k) + p for k, p in enumerate(pt)]
    moved = [VectorField([c.substitute(shift) for c in d.components]) for d in (d1, d2)]
    truncated = iterated_bracket(*moved, n, (1,) * m)
    assert tuple(c.constant_term() for c in truncated.components) == full.value_at(pt)


def _constant_flow_fields():
    """Constant-flow fields on (x, t): Laurent in x, polynomial in t."""
    exponents = st.tuples(st.integers(min_value=-3, max_value=3),
                          st.integers(min_value=0, max_value=3))
    space = st.dictionaries(exponents, fractions(), max_size=3)
    return space.map(lambda terms: VectorField([Poly(2, terms, laurent=True),
                                                Poly.one(2)]))


@settings(max_examples=60, deadline=None)
@given(_constant_flow_fields(), _constant_flow_fields(),
       st.integers(min_value=2, max_value=5))
def test_time_weighted_bracket_along_the_curve(d1, d2, n):
    # along x = z at t = 0 only the t^0 terms are read
    curve = [Poly.variable(1, 0)]
    full = _repeated_bracket(d1, d2, n)
    truncated = iterated_bracket(d1, d2, n, (0, 1))
    assert truncated.components[1].is_zero()
    assert evaluate_along_curve(truncated.components[0], curve) == \
        evaluate_along_curve(full.components[0], curve)


class TestTimeClassification:
    def test_time_dependent(self):
        d = VectorField([Poly.variable(2, 0) ** 2, Poly.zero(2)])
        assert time_component_class(d) is TimeClass.TIME_DEPENDENT_IN_F

    def test_constant_flow(self):
        d = VectorField([Poly.variable(2, 0) ** 2, Poly.one(2)])
        assert time_component_class(d) is TimeClass.CONSTANT_FLOW

    def test_neither(self):
        d = VectorField([Poly.variable(2, 0) ** 2, Poly.variable(2, 1)])
        assert time_component_class(d) is TimeClass.NEITHER

    def test_extension(self):
        d = VectorField([Poly.variable(3, 1), -Poly.variable(3, 0), Poly.zero(3)])
        e = extend_constant_flow(d)
        assert e.components[:2] == d.components[:2]
        assert e.components[2] == Poly.one(3)
        assert time_component_class(e) is TimeClass.CONSTANT_FLOW

    def test_extension_of_zero(self):
        e = extend_constant_flow(VectorField.zero(2))
        assert e == VectorField([Poly.zero(2), Poly.one(2)])

    def test_time_dependent_coefficient_allowed(self):
        t_x = Poly.variable(2, 1) * Poly.variable(2, 0)
        e = extend_constant_flow(VectorField([t_x, Poly.zero(2)]))
        assert e.components[0] == t_x and e.components[1] == Poly.one(2)

    def test_nonzero_time_component_rejected(self):
        with pytest.raises(ClassificationError):
            extend_constant_flow(VectorField([Poly.zero(2), Poly.one(2)]))


def _time_fields(num_space, max_degree=2, max_terms=3):
    """Strategy for time-dependent fields on num_space + 1 variables."""
    return st.lists(
        polys(num_space + 1, max_degree, max_terms),
        min_size=num_space, max_size=num_space,
    ).map(lambda comps: VectorField(comps + [Poly.zero(num_space + 1)]))


@settings(max_examples=30)
@given(_time_fields(2), _time_fields(2))
def test_time_dependent_closure(d1, d2):
    assert time_component_class(lie_bracket(d1, d2)) is TimeClass.TIME_DEPENDENT_IN_F
    ddt = VectorField([Poly.zero(3), Poly.zero(3), Poly.one(3)])
    assert time_component_class(lie_bracket(ddt, d1)) is TimeClass.TIME_DEPENDENT_IN_F


@settings(max_examples=30)
@given(_time_fields(2), _time_fields(2))
def test_constant_flow_brackets_are_time_dependent(d1, d2):
    e1, e2 = extend_constant_flow(d1), extend_constant_flow(d2)
    for n in range(2, 6):
        assert time_component_class(iterated_bracket(e1, e2, n)) is \
            TimeClass.TIME_DEPENDENT_IN_F


class TestGraphEmbed:
    def test_construction(self):
        y = Poly.variable(1, 0)
        graph_map, embedded = graph_embed([y ** 2], [VectorField([Poly.one(1)])])
        assert graph_map == (y, y ** 2)
        assert embedded[0] == VectorField([Poly.zero(2), Poly.one(2)])

    def test_bracket_preserved(self):
        y = Poly.variable(1, 0)
        gens = [D_X, X_DY]
        _, embedded = graph_embed([y, y ** 2], gens)
        lhs = lie_bracket(embedded[0], embedded[1])
        _, [embedded_bracket] = graph_embed([y, y ** 2], [lie_bracket(*gens)])
        assert lhs == embedded_bracket

    def test_embedded_values_have_zero_domain_part(self):
        y = Poly.variable(1, 0)
        _, embedded = graph_embed([y ** 2], [VectorField([Poly.variable(1, 0)])])
        val = embedded[0].value_at([Fraction(2), Fraction(4)])  # (y0, f(y0))
        assert val[0] == 0


@settings(max_examples=30)
@given(vector_fields(2), vector_fields(2),
       st.lists(polys(1, max_degree=2, max_terms=3), min_size=2, max_size=2))
def test_graph_embed_preserves_brackets(d1, d2, f_comps):
    _, embedded = graph_embed(f_comps, [d1, d2])
    _, [embedded_bracket] = graph_embed(f_comps, [lie_bracket(d1, d2)])
    assert lie_bracket(embedded[0], embedded[1]) == embedded_bracket
