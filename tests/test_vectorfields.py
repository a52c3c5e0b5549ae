"""Derivations, brackets, time classification, and the graph embedding."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlift.algebra import Poly
from jetlift.errors import ClassificationError, DimensionError
from jetlift.vectorfields import (TimeClass, VectorField, apply_derivation,
                                  derivation_powers, extend_constant_flow, graph_embed,
                                  iterated_bracket, lie_bracket,
                                  time_component_class)

from strategies import polys, vector_fields

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
    return draw(vector_fields(m, max_degree=4 - m, max_terms=2)), weights, draw(
        st.integers(min_value=0, max_value=5))


@settings(max_examples=60, deadline=None)
@given(weighted_power_cases())
def test_derivation_powers_are_weighted_truncations(case):
    d, weights, order = case
    m = d.num_vars
    powers = derivation_powers(d.components, order, weights)
    assert len(powers) == order + 1
    full = [Poly.variable(m, k) for k in range(m)]
    for i, row in enumerate(powers):
        cap = order - i
        assert row == [Poly(m, {e: c for e, c in p.terms.items()
                                if sum(w * x for w, x in zip(weights, e)) <= cap})
                       for p in full]
        full = [apply_derivation(d, p) for p in full]


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
