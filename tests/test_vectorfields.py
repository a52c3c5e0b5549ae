"""Derivations, brackets, time classification, and the graph embedding."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlift import vectorfields
from jetlift.algebra import Poly
from jetlift.cech import TargetAtlas, crossing_starts, evaluate_along_curve
from jetlift.errors import (ClassificationError, DimensionError,
                            InternalCheckError, LiftError, LimitError, OrderError)
from jetlift.flows import flow_jet, flow_series_picard
from jetlift.jets import jet_from_series
from jetlift.limits import MAX_ORDER
from jetlift.vectorfields import (JetTower, TimeClass, VectorField,
                                  apply_derivation, extend_constant_flow, graph_embed,
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


def tower_rows(components, order, weights, starts=None):
    """Every row of a tower built to `order` in one call: the truncated powers."""
    tower = JetTower(components, weights, starts).extended(order)
    return [list(tower.row(i)) for i in range(order + 1)]


@settings(max_examples=100, deadline=None)
@given(weighted_power_cases())
def test_derivation_powers_are_weighted_truncations(case):
    d, weights, order = case
    m = d.num_vars
    powers = tower_rows(d.components, order, weights)
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


@pytest.mark.parametrize("order", range(7))
def test_laurent_start_propagates_the_inverse(order):
    # D = x^2 d/dx flows x(t) = x / (1 - t*x), so 1/x(t) = 1/x - t: the rows of
    # x are i! * x^(i+1) and those of 1/x are 1/x, -1, 0, 0, ...
    x = Poly.variable(1, 0)
    powers = tower_rows([x ** 2], order, (0,), starts=[(1,), (-1,)])
    assert [row[0] for row in powers] == [Poly.monomial(1, (i + 1,), factorial(i))
                                          for i in range(order + 1)]
    inverse = [Poly(1, {(-1,): 1}, laurent=True), Poly.constant(1, -1)]
    assert [row[1] for row in powers] == (inverse + [Poly.zero(1)] * order)[:order + 1]


@pytest.mark.parametrize("order", range(7))
def test_laurent_start_graded_by_time(order):
    # the same flow on (x, t) with D = x^2 d/dx + d/dt, graded by t alone: x^-1
    # has weight 0, so its rows are cut by nothing, and t has weight 1
    powers = tower_rows([X ** 2, ONE2], order, (0, 1), starts=[(-1, 0), (0, 1)])
    inverse = [Poly(2, {(-1, 0): 1}, laurent=True), Poly.constant(2, -1)]
    assert [row[0] for row in powers] == (inverse + [ZERO2] * order)[:order + 1]
    t = Poly.variable(2, 1)
    time = [t if order else ZERO2, ONE2]
    assert [row[1] for row in powers] == (time + [ZERO2] * order)[:order + 1]


class TestJetTowerLevels:
    def test_negative_level_is_refused(self):
        with pytest.raises(OrderError, match="order must be >= 0"):
            JetTower([X ** 2, ONE2], (0, 1)).extended(-3)

    def test_level_above_max_order_is_refused(self):
        tower = JetTower([ONE2, X], (1, 1))
        with pytest.raises(LimitError,
                           match=f"is 100, above the limit MAX_ORDER = {MAX_ORDER}"):
            tower.extended(100)
        with pytest.raises(LimitError, match="MAX_ORDER"):
            tower.extended(3).extended(MAX_ORDER + 1)
        assert tower.extended(MAX_ORDER).level == MAX_ORDER

    def test_extending_to_a_held_level_computes_nothing(self):
        tower = JetTower([X ** 2, ONE2], (0, 1)).extended(4)
        assert tower.extended(2) is tower and tower.extended(4) is tower


def _change(draw, weights, level, below):
    """A nonzero term x^e of weighted degree >= level, or < level with `below`.

    Without a weight-1 variable every term has degree 0, so level is 0 then.
    """
    graded = [k for k, w in enumerate(weights) if w]
    e = [draw(st.integers(min_value=0, max_value=2)) if not w else 0 for w in weights]
    if graded:
        k = draw(st.sampled_from(graded))
        e[k] = (draw(st.integers(min_value=0, max_value=level - 1)) if below
                else level + draw(st.integers(min_value=0, max_value=1)))
    return tuple(e), draw(fractions().filter(bool))


@st.composite
def relaxed_tower_cases(draw):
    """Weights, Laurent starts, a field, and per level the terms a swap adds."""
    m = draw(st.integers(min_value=1, max_value=3))
    weights = tuple(draw(st.lists(st.integers(min_value=0, max_value=1),
                                  min_size=m, max_size=m)))
    # negative exponents on weight-0 variables only
    start = st.tuples(*[st.integers(min_value=0 if w else -2, max_value=2)
                        for w in weights])
    starts = draw(st.lists(start, min_size=1, max_size=3))
    components = draw(st.lists(st.dictionaries(exponent_tuples(m, 2), fractions(),
                                               max_size=3), min_size=m, max_size=m))
    top = draw(st.integers(min_value=0, max_value=5))
    changes = []
    for level in range(top):
        terms = []
        if any(weights) or level == 0:
            for _ in range(draw(st.integers(min_value=0, max_value=2))):
                terms.append((draw(st.integers(min_value=0, max_value=m - 1)),
                              *_change(draw, weights, level, False)))
        changes.append(terms)
    bad = (draw(st.integers(min_value=0, max_value=m - 1)),
           *_change(draw, weights, top, True)) if any(weights) and top else None
    return weights, starts, [Poly(m, t) for t in components], top, changes, bad


def _with_terms(components, terms):
    m = len(components)
    out = list(components)
    for k, e, c in terms:
        out[k] = out[k] + Poly.monomial(m, e, c)
    return out


@settings(max_examples=100, deadline=None)
@given(relaxed_tower_cases())
def test_relaxed_extension_equals_a_one_shot_build(case):
    # one level at a time, each swap changing the field only at weighted degree
    # >= the held level, the tower holds what one build of the final field does
    weights, starts, components, top, changes, bad = case
    tower = JetTower(components, weights, starts).extended(0)
    for level, terms in enumerate(changes):
        components = _with_terms(components, terms)
        tower = tower.swapped(components).extended(level + 1)
    fresh = JetTower(components, weights, starts).extended(top)
    assert tower.level == fresh.level == top
    for i in range(top + 1):
        assert tower.row(i) == fresh.row(i)
        for d in range(top + 1 - i):
            assert tower.row(i, d) == fresh.row(i, d)
    if bad is not None:
        with pytest.raises(InternalCheckError, match="carried jet sections"):
            tower.swapped(_with_terms(components, [bad]))


T = Poly.variable(2, 1)


@pytest.mark.parametrize("components, weights, starts", [
    ([X + T * X ** 2 + Fraction(1, 3) * T ** 2 * X ** 3 - T * X ** 4, ONE2],
     (0, 1), [(1, 0), (0, 1), (-1, 0)]),
    ([Y + X ** 2, X * Y + ONE2], (1, 1), None),
], ids=["time-graded", "all-graded"])
def test_one_level_at_a_time_forms_each_product_once(monkeypatch, components,
                                                      weights, starts):
    # extended one level at a time, a tower multiplies the same pairs of a
    # component term and a derivative term as one build to the top level does,
    # so no product that lands in a held level is formed again
    formed = []
    derive = vectorfields._derive_into

    def counting(out, band, part, keys):
        # per component, its terms times the terms of `part` with a nonzero
        # exponent in its variable: the products the tower's loop forms
        formed.append(sum(len(terms) * sum(keys.unpack(key)[keys.shifts.index(shift)]
                                           != 0 for key in part)
                          for shift, terms in band))
        return derive(out, band, part, keys)
    monkeypatch.setattr(vectorfields, "_derive_into", counting)
    top = 8
    tower = JetTower(components, weights, starts)
    for level in range(top + 1):
        tower = tower.extended(level)
    relaxed, formed[:] = sum(formed), []
    one_shot = JetTower(components, weights, starts).extended(top)
    assert relaxed == sum(formed) > 0
    assert [tower.row(i) for i in range(top + 1)] == \
        [one_shot.row(i) for i in range(top + 1)]


BIG = 10 ** 4


@st.composite
def packed_tower_cases(draw):
    """A field, starts and one swap, with exponents up to BIG.

    Weights are all 1 or graded by the last variable alone.  Exponents of
    weight-0 variables, in starts and components, may be negative.  The swap
    adds terms of weighted degree >= the held level, with denominators no
    field had before (7, then 11), so it grows L; with `wide` one of them has
    an exponent above 2 * BIG in size, so it needs wider digits.
    """
    m = draw(st.integers(min_value=1, max_value=3))
    weights = draw(st.sampled_from([(1,) * m, (0,) * (m - 1) + (1,)]))
    cap = draw(st.sampled_from([3, BIG]))

    def exponents():
        return tuple(draw(st.integers(min_value=-cap, max_value=cap)) if not w
                     else draw(st.one_of(st.integers(min_value=0, max_value=2),
                                         st.integers(min_value=0, max_value=cap)))
                     for w in weights)
    starts = [exponents() for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    components = [Poly(m, {exponents(): draw(fractions())
                           for _ in range(draw(st.integers(min_value=0, max_value=2)))},
                       laurent=True) for _ in range(m)]
    top = draw(st.integers(min_value=0, max_value=4))
    level = draw(st.integers(min_value=0, max_value=top))
    wide = draw(st.booleans())
    added = []
    for n in range(draw(st.integers(min_value=1, max_value=2))):
        e = [0] * m
        e[-1] = level + draw(st.integers(min_value=0, max_value=1))
        if wide and not n:
            j = draw(st.integers(min_value=0, max_value=m - 1))
            e[j] = (2 * BIG + 1) * (draw(st.sampled_from([1, -1])) if not weights[j] else 1)
        added.append((draw(st.integers(min_value=0, max_value=m - 1)), tuple(e),
                      Fraction(draw(st.integers(min_value=1, max_value=6)), (7, 11)[n])))
    return weights, starts, components, top, level, wide, added


def tuple_kernel_powers(components, weights, starts, top):
    """Row i per start: D^i x^start by `apply_derivation`, cut to weighted
    degree <= top - i, for i <= top."""
    m = len(components)
    d = VectorField(components)
    row = [Poly(m, {e: 1}, laurent=True) for e in starts]
    rows = []
    for i in range(top + 1):
        rows.append([Poly(m, {e: c for e, c in p.terms.items()
                              if sum(w * x for w, x in zip(weights, e)) <= top - i},
                          laurent=True) for p in row])
        row = [apply_derivation(d, p) for p in row]
    return rows


@settings(max_examples=100, deadline=None)
@given(packed_tower_cases())
def test_packed_tower_equals_the_tuple_kernel_powers(case):
    # the tower's packed keys, unpacked by `row`, give the powers that the
    # tuple-key kernel computes, before a swap and after one that grows L and,
    # when wide, repacks the held slices into wider digits
    weights, starts, components, top, level, wide, added = case
    tower = JetTower(components, weights, starts).extended(level)
    assert [list(tower.row(i)) for i in range(level + 1)] == \
        tuple_kernel_powers(components, weights, starts, level)
    components = list(components)
    for k, e, c in added:
        components[k] = components[k] + Poly(len(components), {e: c}, laurent=True)
    swapped = tower.swapped(components)
    assert swapped._scale > tower._scale
    assert swapped._keys.bits > tower._keys.bits or not wide
    swapped = swapped.extended(top)
    assert [list(swapped.row(i)) for i in range(top + 1)] == \
        tuple_kernel_powers(components, weights, starts, top)


def curve_value(draw, shape):
    """One curve component in z of the given shape."""
    if shape == "monomial":
        c = draw(fractions().filter(lambda c: c not in (0, 1, -1)))
        return Poly.monomial(1, (draw(st.integers(min_value=-2, max_value=2)),), c,
                             laurent=True)
    if shape == "constant":
        return Poly.constant(1, draw(fractions().filter(lambda c: c not in (0, 1))))
    if shape == "zero":
        return Poly.zero(1)
    if shape == "one":
        return Poly.one(1)
    exponents = draw(st.sets(st.integers(min_value=-2, max_value=2), min_size=2,
                             max_size=3))
    return Poly(1, {(e,): draw(fractions().filter(bool)) for e in exponents},
                laurent=True)


CURVE_SHAPES = ("monomial", "constant", "zero", "one", "polynomial")


@st.composite
def curve_restriction_cases(draw):
    """A constant-flow tower on q space coordinates and t, a curve, and a swap.

    The starts are the coordinates, or an atlas's `crossing_starts`, which
    add x_j^-1.  Space exponents of components may be negative, so a
    non-monomial curve component can meet a negative power.  The swap adds
    terms of t-degree >= the held level with new denominators; with `wide`
    one has a space exponent above 2 * BIG in size, so it needs wider
    digits, and that coordinate goes along a monomial.
    """
    q = draw(st.integers(min_value=1, max_value=2))
    m = q + 1
    weights = (0,) * q + (1,)
    space = [st.integers(min_value=-2, max_value=2)] * q
    components = [Poly(m, draw(st.dictionaries(st.tuples(*space, st.integers(0, 2)),
                                                fractions(), max_size=2)), laurent=True)
                  for _ in range(q)] + [Poly.one(m)]
    order = draw(st.permutations(range(q)))
    transition = [Poly.monomial(q, tuple(draw(st.sampled_from([1, -1])) if j == order[k]
                                         else 0 for j in range(q)),
                                draw(fractions().filter(bool)), laurent=True)
                  for k in range(q)]
    atlas = TargetAtlas([f"x{k}" for k in range(q)], transition)
    starts = draw(st.sampled_from([None, crossing_starts(atlas)]))
    top = draw(st.integers(min_value=0, max_value=4))
    level = draw(st.integers(min_value=0, max_value=top))
    wide = draw(st.booleans())
    shapes = [draw(st.sampled_from(CURVE_SHAPES)) for _ in range(q)]
    added = []
    for n in range(draw(st.integers(min_value=1, max_value=2))):
        e = [0] * m
        e[-1] = level + draw(st.integers(min_value=0, max_value=1))
        if wide and not n:
            j = draw(st.integers(min_value=0, max_value=q - 1))
            e[j] = (2 * BIG + 1) * draw(st.sampled_from([1, -1]))
            shapes[j] = "monomial"
        added.append((draw(st.integers(min_value=0, max_value=q - 1)), tuple(e),
                      Fraction(draw(st.integers(min_value=1, max_value=6)), (7, 11)[n])))
    curve = tuple(curve_value(draw, shape) for shape in shapes)
    return weights, starts, components, curve, top, level, wide, added


def restriction_outcome(restrict):
    try:
        return restrict()
    except LiftError as exc:
        return "LiftError: " + str(exc)


def assert_restrictions_match(tower, curve):
    # every level: the packed restriction equals the Fraction substitution,
    # and a negative power along a non-monomial raises the same error
    for i in range(tower.level + 1):
        reference = restriction_outcome(
            lambda: tuple(evaluate_along_curve(p, curve) for p in tower.row(i, 0)))
        assert restriction_outcome(lambda: tower.along_curve(i, curve)) == reference


@settings(max_examples=100, deadline=None)
@given(curve_restriction_cases())
def test_curve_restriction_equals_substitution(case):
    weights, starts, components, curve, top, level, wide, added = case
    tower = JetTower(components, weights, starts).extended(level)
    assert_restrictions_match(tower, curve)
    components = list(components)
    for k, e, c in added:
        components[k] = components[k] + Poly(len(components), {e: c}, laurent=True)
    swapped = tower.swapped(components)
    assert swapped._keys.bits > tower._keys.bits or not wide
    assert_restrictions_match(swapped.extended(top), curve)


@pytest.mark.parametrize("value", [Poly(1, {(1,): 1, (2,): 1}), Poly.zero(1)],
                         ids=["z+z^2", "zero"])
def test_negative_power_along_a_non_monomial_is_refused(value):
    # row 0 of the start x^-1 is x^-1 itself
    tower = JetTower([Poly.zero(2), ONE2], (0, 1), [(-1, 0)]).extended(1)
    message = ("cannot restrict a negative power of a coordinate along a curve "
               "component that is not a monomial")
    with pytest.raises(LiftError, match=message):
        evaluate_along_curve(tower.row(0, 0)[0], [value])
    with pytest.raises(LiftError, match=message):
        tower.along_curve(0, [value])


def test_curve_restriction_adds_keys_that_meet_and_drops_zero_sums():
    # D = (x - y) d/dx + d/dt: row 1 of x is x - y, 0 along x = y = z, and
    # row 1 of y is 0; along x = 1, y = z, x^0 and x^1 both reach z^0
    x, y = Poly.variable(3, 0), Poly.variable(3, 1)
    tower = JetTower([x - y, Poly.zero(3), Poly.one(3)], (0, 0, 1)).extended(2)
    z = Poly.variable(1, 0)
    assert tower.along_curve(1, [z, z])[0].terms == {}
    one = Poly.one(1)
    assert tower.along_curve(2, [one, z]) == tuple(
        evaluate_along_curve(p, [one, z]) for p in tower.row(2, 0))
    assert tower.along_curve(2, [one, z])[0] == one - z


@pytest.mark.parametrize("s", [1, -1])
def test_laurent_exponents_at_max_order_stay_in_their_digits(s):
    # D = x^-3 d/dx + d/dt takes x^a to a * x^(a-4), so row i of x^s is
    # prod_{j<i} (s - 4j) * x^(s - 4i): each row moves the exponent by
    # max|component exponent| + 1, as far as the digit-width bound allows
    tower = JetTower([Poly(2, {(-3, 0): 1}, laurent=True), ONE2], (0, 1),
                     [(s, 0)]).extended(MAX_ORDER)
    coefficient = 1
    for i in range(MAX_ORDER + 1):
        assert tower.row(i, 0) == (Poly(2, {(s - 4 * i, 0): coefficient},
                                        laurent=True),)
        coefficient *= s - 4 * i


def test_flow_jet_at_max_order_with_a_high_degree_component():
    # x^60 lands only at levels above 60, and its exponent sets the digit width
    x, y, z = (Poly.variable(3, k) for k in range(3))
    field = VectorField([y + Fraction(1, 2) * z ** 2, z - x * y,
                         Fraction(1, 3) * x ** 60 + 1])
    point = (0, 0, 1)
    jet = flow_jet(field, point, MAX_ORDER)
    assert jet == jet_from_series(flow_series_picard(field, point, MAX_ORDER))


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
