"""Cochains, restriction, coboundaries, and exact splitting/obstruction solving."""

import enum
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import jetlift
from jetlift.algebra import Frozen, Poly, TruncSeries
from jetlift.cech import (Cochain0, Cochain1, CurveAtlas, MorphismData, Obstruction,
                          PresentedSheaf, TargetAtlas, coboundary,
                          negate_exponents, restrict_section, solve_coboundary,
                          uni, uni_x, window_of)
from jetlift.errors import JetliftError, LiftError, TransitionError, WindowOverflowError
from jetlift.flows import DefectReport, InvarianceReport, MinorViolation
from jetlift.frobenius import (CounterexamplePoint, Distribution,
                               InvolutivityCertificate, NotFoundUpTo, StratumReport)
from jetlift.jets import Jet, TangentVector
from jetlift.lifting import LiftResult, LiftScenario, LiftState, LiftStep
from jetlift.vectorfields import VectorField

from strategies import fractions, polys

W = (-8, 8)
TRIVIAL = PresentedSheaf.line_bundle(Poly.one(1))


def laurent_polys(lo=-3, hi=3, max_terms=4):
    return st.dictionaries(
        st.integers(min_value=lo, max_value=hi),
        st.builds(Fraction, st.integers(min_value=-6, max_value=6),
                  st.integers(min_value=1, max_value=4)),
        max_size=max_terms,
    ).map(lambda d: uni(d))


class TestRestrict:
    def test_chart0_identity(self):
        out = restrict_section(TRIVIAL, 0, [uni({1: 1, 0: 1})])
        assert out[0] == uni({1: 1, 0: 1})

    def test_chart1_substitution(self):
        out = restrict_section(TRIVIAL, 1, [uni_x(1)])
        assert out[0] == uni_x(-1)

    def test_tangent_sheaf_rule(self):
        # d/dz = -w^2 d/dw: transition factor -z^2, so the chart-1 coefficient
        # -w (the field -w d/dw) restricts to chart 0 as z (the field z d/dz)
        sheaf = PresentedSheaf.line_bundle(uni({2: -1}))
        out = restrict_section(sheaf, 1, [uni({1: -1})])
        assert out[0] == uni_x(1)


class TestCoboundary:
    def test_zero(self):
        lam = Cochain0(TRIVIAL, [Poly.zero(1)], [Poly.zero(1)], W)
        assert coboundary(lam).is_zero()

    def test_split_example(self):
        lam = Cochain0(TRIVIAL, [uni({1: 1, 0: 1})], [uni({1: -1})], W)
        nu = coboundary(lam)
        assert nu.nu01[0] == uni({1: 1, 0: 1, -1: 1})

    def test_constant_sections_cancel(self):
        c = uni({0: Fraction(5, 3)})
        lam = Cochain0(TRIVIAL, [c], [c], W)
        assert coboundary(lam).is_zero()

    def test_window_overflow(self):
        # lambda_1 = w^4 restricts to z^-6, outside the window that bounds lambda
        sheaf = PresentedSheaf.line_bundle(uni_x(-2))
        lam = Cochain0(sheaf, [Poly.zero(1)], [uni({4: 1})], (-4, 4))
        with pytest.raises(WindowOverflowError) as err:
            coboundary(lam)
        assert err.value.required_window == (-6, 4)
        assert str(err.value) == "1-cochain needs window [-6, 4], declared [-4, 4]"


class TestSolveCoboundary:
    def test_trivial_bundle_split(self):
        nu = Cochain1.from_nu01(TRIVIAL, [uni({1: 1, 0: 1, -1: 1})], W)
        lam = solve_coboundary(nu)
        assert isinstance(lam, Cochain0)
        assert lam.chart0[0] == uni({1: 1, 0: 1})
        assert lam.chart1[0] == uni({1: -1})
        assert coboundary(lam) == nu

    def test_obstructed_class(self):
        sheaf = PresentedSheaf.line_bundle(uni_x(-2))
        nu = Cochain1.from_nu01(sheaf, [uni_x(-1)], (-4, 4))
        result = solve_coboundary(nu)
        assert isinstance(result, Obstruction)
        assert result.cokernel_dim == 1
        assert result.residual[0] == uni_x(-1)

    def test_zero_splits_to_zero(self):
        nu = Cochain1.from_nu01(TRIVIAL, [Poly.zero(1)], W)
        lam = solve_coboundary(nu)
        assert lam.is_zero()

    def test_degree_two_twist_unobstructed(self):
        # transition z^2 has no negative-power gap: splitting always succeeds
        sheaf = PresentedSheaf.line_bundle(uni_x(2))
        nu = Cochain1.from_nu01(sheaf, [uni({1: 1, 0: 2, -1: 3})], (-6, 6))
        lam = solve_coboundary(nu)
        assert isinstance(lam, Cochain0)
        assert coboundary(lam) == nu

    def test_trivial_bundle_never_obstructed_in_symmetric_windows(self):
        for width in (2, 4, 6, 8):
            window = (-width, width)
            nu = Cochain1.from_nu01(
                TRIVIAL, [uni({width: 1, -width: Fraction(1, 2)})], window)
            lam = solve_coboundary(nu)
            assert isinstance(lam, Cochain0)
            assert coboundary(lam) == nu

    def test_degree_minus_two_cokernel_is_one_dimensional(self):
        # h^1 of the degree -2 twist is 1; the window does not change that
        sheaf = PresentedSheaf.line_bundle(uni_x(-2))
        for width in (3, 4, 6):
            nu = Cochain1.from_nu01(sheaf, [uni_x(-1)], (-width, width))
            result = solve_coboundary(nu)
            assert isinstance(result, Obstruction)
            assert result.cokernel_dim == 1

    def test_degree_minus_two_class_at_wide_window(self):
        # the window bounds nu only: the system is sized by T and nu, not by it
        sheaf = PresentedSheaf.line_bundle(uni_x(-2))
        nu = Cochain1.from_nu01(sheaf, [uni_x(-1)], (-400, 400))
        result = solve_coboundary(nu)
        assert isinstance(result, Obstruction)
        assert result.residual == (uni_x(-1),)
        assert result.cokernel_dim == 1

    def test_rank_two_residual_representative(self):
        # transition T = [[z, 2/3 z^-1], [0, z^-3]]: the second row has the gap
        # z^-1, z^-2, and the first-row part of nu is absorbed by coboundaries.
        # The row order (component-major, exponent ascending) fixes this
        # representative of the class.  T [[1, -2/3 z^-2], [0, 1]] = diag(z,
        # z^-3), and the second factor is invertible over Q[z^-1], so T has
        # splitting type (1, -3) and h^1 = 0 + 2.
        gen = VectorField([Poly.one(2), Poly.zero(2)])
        sheaf = PresentedSheaf(None, None, [gen, gen], [gen, gen],
                               [[uni_x(1), uni_x(-1) * Fraction(2, 3)],
                                [Poly.zero(1), uni_x(-3)]])
        nu = [uni({-2: 1, -1: Fraction(1, 2), 3: 1}), uni({-2: 2, -1: -1, 1: 1})]
        for window in ((-6, 6), (-16, 16)):
            result = solve_coboundary(Cochain1.from_nu01(sheaf, nu, window))
            assert isinstance(result, Obstruction)
            assert result.residual == (Poly.zero(1), uni({-1: -1, -2: 2}))
            assert result.cokernel_dim == 2


class TestTransitionUnits:
    """A transition must be a unit over Q[z, 1/z]: det T = c*z^k with c != 0."""

    GEN = VectorField([Poly.one(2), Poly.zero(2)])

    def sheaf(self, matrix):
        s = len(matrix)
        return PresentedSheaf(None, None, [self.GEN] * s, [self.GEN] * s, matrix)

    @pytest.mark.parametrize("transition", [
        Poly.zero(1), uni({-1: 1, 1: 1}), uni({0: 1, 1: 1})])
    def test_line_bundle_non_unit_rejected(self, transition):
        with pytest.raises(TransitionError, match="not a unit"):
            PresentedSheaf.line_bundle(transition)
        assert issubclass(TransitionError, JetliftError)

    def test_rank_two_non_unit_rejected(self):
        # det = z^2 - 1, although every entry is a monomial
        with pytest.raises(TransitionError, match="determinant z\\^2 - 1 "):
            self.sheaf([[uni_x(1), Poly.one(1)], [Poly.one(1), uni_x(1)]])
        with pytest.raises(TransitionError, match="determinant 0 "):
            self.sheaf([[uni_x(1), uni_x(2)], [uni_x(-1), Poly.one(1)]])

    def test_units_accepted(self):
        assert PresentedSheaf.line_bundle(uni({3: 2})).transition == ((uni({3: 2}),),)
        for a in range(-3, 4):
            for b in range(-3, 4):
                for d in range(-3, 4):
                    for c in (Fraction(0), Fraction(2, 3), Fraction(-5)):
                        self.sheaf([[uni_x(a), uni_x(b) * c],
                                    [Poly.zero(1), uni_x(d)]])
        # a unit whose entries are not monomials: det = 1
        self.sheaf([[uni({0: 1, 1: 1}), uni_x(1)], [Poly.one(1), Poly.one(1)]])


@settings(max_examples=40, deadline=None)
@given(laurent_polys(), laurent_polys(-3, 3))
def test_split_then_delta_reproduces_nu(p, q):
    lam = Cochain0(TRIVIAL, [p], [q], W)
    nu = coboundary(lam)
    split = solve_coboundary(nu)
    assert isinstance(split, Cochain0)
    assert coboundary(split) == nu


@st.composite
def split_transitions(draw):
    """T = A diag(z^a) B with A upper unitriangular over Q[z] and B lower
    unitriangular over Q[1/z]; returns (A, a, T)."""
    s = draw(st.integers(min_value=1, max_value=3))
    a = draw(st.lists(st.sampled_from(range(-4, 4)), min_size=s, max_size=s))
    one, zero = Poly.one(1), Poly.zero(1)
    upper = [[one if i == j else draw(laurent_polys(0, 2, 2)) if i < j else zero
              for j in range(s)] for i in range(s)]
    lower = [[one if i == j else draw(laurent_polys(-2, 0, 2)) if i > j else zero
              for j in range(s)] for i in range(s)]

    def mul(x, y):
        return [[sum((x[i][k] * y[k][j] for k in range(s)), zero) for j in range(s)]
                for i in range(s)]

    diag = [[uni_x(a[i]) if i == j else zero for j in range(s)] for i in range(s)]
    return upper, a, mul(mul(upper, diag), lower)


@settings(max_examples=80, deadline=None)
@given(split_transitions(), st.data())
def test_split_type_decides_every_answer(split, data):
    # T Q[1/z]^s = A diag(z^a) Q[1/z]^s and A keeps Q[z]^s, so h^1 = sum of
    # max(0, -a_i - 1), and nu = A u splits exactly when u has no term z^e g_i
    # with a_i < e < 0.  Neither the answer nor the verdict may depend on the
    # window, as long as it holds nu.
    upper, a, transition = split
    s = len(a)
    gen = VectorField([Poly.one(2), Poly.zero(2)])
    sheaf = PresentedSheaf(None, None, [gen] * s, [gen] * s, transition)
    u = data.draw(st.lists(laurent_polys(-8, 4, 6).filter(bool),
                           min_size=s, max_size=s))
    if data.draw(st.booleans()):   # drop the gap terms: nu must split
        u = [uni({e: c for (e,), c in p.terms.items() if not a[i] < e < 0})
             for i, p in enumerate(u)]
    else:                          # add one: nu is obstructed unless h^1 = 0
        u = [p + uni_x(data.draw(st.integers(a[i] + 1, -1))) if a[i] < -1 else p
             for i, p in enumerate(u)]
    obstructed = any(a[i] < e < 0 for i in range(s) for (e,) in u[i].terms)
    nu = [sum((upper[i][j] * u[j] for j in range(s)), Poly.zero(1))
          for i in range(s)]

    tight = window_of(nu)
    results = [solve_coboundary(Cochain1(sheaf, nu, window))
               for window in (tight, (tight[0] - 7, tight[1] + 5))]
    assert results[0] == results[1]
    result = results[0]
    assert isinstance(result, Obstruction) == obstructed
    if obstructed:
        assert result.cokernel_dim == sum(max(0, -ai - 1) for ai in a)
    else:
        assert results[0].window == results[1].window
        assert coboundary(result).nu01 == tuple(nu)
        assert all(p.is_polynomial() for p in result.chart0 + result.chart1)


class TestPresentedSheafFromCharts:
    def _flagship(self):
        x = Poly.variable(1, 0)
        atlas = TargetAtlas(("x",), [uni_x(-1)])
        morphism = MorphismData((x,), (x,))
        gen0 = VectorField([x.reindex(2, (0,)), Poly.zero(2)])
        gen1 = VectorField([(-x).reindex(2, (0,)), Poly.zero(2)])
        return PresentedSheaf.from_charts(atlas, morphism, [gen0], [gen1])

    def test_log_field_transition_is_trivial(self):
        sheaf = self._flagship()
        assert sheaf.transition[0][0] == Poly.one(1)

    def test_degree_minus_two_presentation(self):
        x = Poly.variable(1, 0)
        atlas = TargetAtlas(("x",), [uni_x(-1)])
        morphism = MorphismData((x,), (x,))
        gen0 = VectorField([(x ** 4).reindex(2, (0,)), Poly.zero(2)])
        gen1 = VectorField([(-Poly.one(1)).reindex(2, (0,)), Poly.zero(2)])
        sheaf = PresentedSheaf.from_charts(atlas, morphism, [gen0], [gen1])
        assert sheaf.transition[0][0] == uni_x(-2)

    def test_inconsistent_morphism_rejected(self):
        x = Poly.variable(1, 0)
        atlas = TargetAtlas(("x",), [uni_x(-1)])
        morphism = MorphismData((x,), (x + 1,))
        gen = VectorField([x.reindex(2, (0,)), Poly.zero(2)])
        with pytest.raises(LiftError):
            PresentedSheaf.from_charts(atlas, morphism, [gen], [gen])

    def test_nonzero_time_component_rejected(self):
        x = Poly.variable(1, 0)
        atlas = TargetAtlas(("x",), [uni_x(-1)])
        morphism = MorphismData((x,), (x,))
        bad = VectorField([x.reindex(2, (0,)), Poly.one(2)])
        with pytest.raises(LiftError):
            PresentedSheaf.from_charts(atlas, morphism, [bad], [bad])


class TestTargetAtlas:
    def test_inverse_of_reciprocal(self):
        atlas = TargetAtlas(("x",), [uni_x(-1)])
        assert atlas.inverse[0] == uni_x(-1)

    def test_non_monomial_transition_rejected(self):
        with pytest.raises(LiftError):
            TargetAtlas(("x",), [uni({1: 1, 0: 1})])

    def test_negate_exponents(self):
        assert negate_exponents(uni({2: 1, -1: 3})) == uni({-2: 1, 1: 3})


def reference_push(forward, back, field):
    """Chain rule with the whole Jacobian: sum_j d(forward_k)/dx_j F_j at x = back(x')."""
    q = len(forward)
    comps = [sum((g.partial(j).reindex(q + 1, range(q)) * field.components[j]
                  for j in range(q)), Poly.zero(q + 1)) for g in forward]
    values = [p.reindex(q + 1, range(q)) for p in back]
    values.append(Poly.variable(q + 1, q))
    return VectorField([c.substitute(values)
                        for c in comps + [field.components[q]]])


def along_curve(field, curve):
    """Space components of a field at (x, t) = (curve, 0)."""
    values = list(curve) + [Poly.zero(1)]
    return [c.substitute(values) for c in field.components[:-1]]


@st.composite
def transition_cases(draw):
    """A monomial atlas, a morphism it accepts, and generators with a unit T.

    Chart-0 coordinate k is c_k * x_(j_k)^(+-1) for a random permutation j of
    q = 1-2 coordinates and c_k != 0, +-1, written out here with its inverse.  A
    chart-1 coordinate read with exponent -1 maps to a Laurent monomial, so f0
    stays Laurent.  The chart-0 generators are triangular along the curve, hence
    independent; chart-1 generator j is the chart-1 reading of
    sum_k M[k][j] gen0_k with M upper triangular and monomial on the diagonal, so
    T = M along the curve is a unit.
    """
    q = draw(st.integers(min_value=1, max_value=2))
    perm = draw(st.permutations(range(q)))
    nonunit = fractions().filter(lambda c: c not in (0, 1, -1))
    transition, inverse, f1 = [None] * q, [None] * q, [None] * q
    for k, j in enumerate(perm):
        e = draw(st.sampled_from((1, -1)))
        c = draw(nonunit)
        exps = [0] * q
        exps[j] = e
        transition[k] = Poly.monomial(q, exps, c, laurent=True)
        exps = [0] * q
        exps[k] = e
        inverse[j] = Poly.monomial(q, exps, 1 / c if e == 1 else c, laurent=True)
        values = (st.builds(lambda d, c: uni({d: c}), st.integers(-2, 2), nonunit)
                  if e == -1 else laurent_polys(-2, 2, 3).filter(
                      lambda p: not p.is_zero()))
        f1[j] = draw(values)
    atlas = TargetAtlas(("x", "y")[:q], transition)
    f0 = [negate_exponents(g.substitute(f1)) for g in transition]
    morphism = MorphismData(tuple(f0), tuple(f1))

    s = draw(st.integers(min_value=1, max_value=q))
    space = list(range(q))
    gens0 = []
    for k in range(s):
        comps = [Poly.zero(q) for _ in range(k)]
        comps.append(draw(polys(q, 2, 3)))
        comps += [draw(polys(q, 2, 2)) for _ in range(k + 1, q)]
        assume(not comps[k].substitute(f0).is_zero())
        gens0.append(VectorField([p.reindex(q + 1, space) for p in comps]
                                 + [Poly.zero(q + 1)]))
    monomial_coords = [m for m in range(q) if f0[m].as_monomial() is not None]
    gens1 = []
    for j in range(s):
        combination = VectorField.zero(q + 1)
        for k in range(j + 1):
            if k < j:
                factor = draw(polys(q, 2, 2))
            else:
                exps = [0] * q
                if monomial_coords:
                    exps[draw(st.sampled_from(monomial_coords))] = draw(
                        st.integers(-2, 2))
                factor = Poly.monomial(q, exps, draw(nonunit), laurent=True)
            combination = combination + gens0[k].scale(factor.reindex(q + 1, space))
        gens1.append(reference_push(inverse, transition, combination))
    return atlas, inverse, morphism, gens0, gens1


@settings(max_examples=150, deadline=None)
@given(transition_cases())
def test_transition_combines_pushed_generators(case):
    atlas, inverse, morphism, gens0, gens1 = case
    sheaf = PresentedSheaf.from_charts(atlas, morphism, gens0, gens1)
    f0 = morphism.components(0)
    base = [along_curve(g, f0) for g in gens0]
    for j, g in enumerate(gens1):
        pushed = along_curve(reference_push(atlas.transition, inverse, g), f0)
        combined = [sum((sheaf.transition[k][j] * base[k][i]
                         for k in range(len(gens0))), Poly.zero(1))
                    for i in range(atlas.num_coords)]
        assert combined == pushed


RECORDS = (CurveAtlas, MorphismData, Obstruction, DefectReport, MinorViolation,
           InvarianceReport, InvolutivityCertificate, NotFoundUpTo,
           CounterexamplePoint, StratumReport, LiftScenario, LiftState, LiftStep,
           LiftResult)


VALUES = [
    lambda: Poly.one(1),
    lambda: TruncSeries(1, 0, [(1,)]),
    lambda: Jet(1, 0, [(1,)]),
    lambda: TangentVector((0,), (1,)),
    lambda: VectorField([Poly.one(1)]),
    lambda: TargetAtlas(("x",), [uni_x(-1)]),
    lambda: TRIVIAL,
    lambda: Cochain0(TRIVIAL, [Poly.zero(1)], [Poly.zero(1)], W),
    lambda: Cochain1(TRIVIAL, [uni_x(-1)], W),
    lambda: Distribution(1, [VectorField([Poly.one(1)])]),
    *(lambda record=record: record(*(None,) * len(record._fields))
      for record in RECORDS),
]
VALUE_IDS = ["Poly", "TruncSeries", "Jet", "TangentVector", "VectorField",
             "TargetAtlas", "PresentedSheaf", "Cochain0", "Cochain1",
             "Distribution", *(record.__name__ for record in RECORDS)]


@pytest.mark.parametrize("make", VALUES, ids=VALUE_IDS)
def test_immutable_types_refuse_attribute_assignment(make):
    value = make()
    # a record is a NamedTuple: its fields are read-only and it has no __dict__
    record = isinstance(value, tuple)
    for name in (*(value._fields if record else type(value).__slots__), "extra"):
        with pytest.raises(AttributeError, match=None if record else "is immutable"):
            setattr(value, name, None)
    for name in value._fields if record else type(value).__slots__:
        before = getattr(value, name)
        with pytest.raises(AttributeError, match=None if record else "is immutable"):
            delattr(value, name)
        assert getattr(value, name) is before


@pytest.mark.parametrize("make", VALUES, ids=VALUE_IDS)
def test_value_reprs_carry_no_address(make):
    assert " at 0x" not in repr(make())


def test_public_classes_are_records_enums_errors_or_frozen():
    """Every public class is immutable by one of four means, and only `Frozen`
    states the refusal; among its subclasses only `Poly` has its own equality."""
    for name in jetlift.__all__:
        cls = getattr(jetlift, name)
        if not isinstance(cls, type) or issubclass(cls, (Exception, enum.Enum)):
            continue
        if issubclass(cls, tuple):
            assert hasattr(cls, "_fields"), name
            continue
        assert issubclass(cls, Frozen), name
        assert "__setattr__" not in vars(cls) and "__delattr__" not in vars(cls), name
        own_equality = "__eq__" in vars(cls) or "__hash__" in vars(cls)
        assert own_equality == (cls is Poly), name
    assert not {"Frozen", "FrozenValue"} & set(jetlift.__all__)


def test_value_equality_is_field_equality_within_one_type():
    rows = [(1, 2), (3, 4)]
    series, jet = TruncSeries(2, 1, rows), Jet(2, 1, rows)
    vector = TangentVector((1, 2), (3, 4))
    field = VectorField([uni_x(2)])
    other = PresentedSheaf.line_bundle(uni_x(3))
    c0 = Cochain0(TRIVIAL, [uni_x(1)], [uni_x(-1)], W)
    c1 = Cochain1(TRIVIAL, [uni_x(-1)], W)
    # the hash of each value is the one of its fields that its equality reads
    assert hash(series) == hash((series.dim, series.order, series.coeffs))
    assert hash(jet) == hash((jet.dim, jet.order, jet.coords))
    assert hash(vector) == hash((vector.basepoint, vector.vec))
    assert hash(field) == hash(field.components)
    assert hash(c0) == hash((c0.chart0, c0.chart1))
    assert hash(c1) == hash(c1.nu01)
    assert series == TruncSeries(2, 1, rows) and jet == Jet(2, 1, rows)
    assert series != jet and jet != series
    assert vector == TangentVector((1, 2), (3, 4)) != TangentVector((1, 2), (3, 5))
    assert field == VectorField([uni_x(2)]) != VectorField([uni_x(1)])
    # a cochain's equality ignores its window and its sheaf
    for same in (Cochain0(other, [uni_x(1)], [uni_x(-1)], (-2, 2)),
                 Cochain0(TRIVIAL, [uni_x(1)], [uni_x(-1)], (-1, 1))):
        assert same == c0 and hash(same) == hash(c0)
    for same in (Cochain1(other, [uni_x(-1)], (-3, 3)),
                 Cochain1(TRIVIAL, [uni_x(-1)], (-1, 1))):
        assert same == c1 and hash(same) == hash(c1)
    assert c0 != Cochain0(TRIVIAL, [uni_x(1)], [uni_x(1)], W)
    assert c1 != Cochain1(TRIVIAL, [uni_x(-2)], W)
    assert c1 != Cochain0(TRIVIAL, [uni_x(-1)], [uni_x(-1)], W)


def test_package_import_loads_no_dataclasses():
    script = ("import sys, jetlift, jetlift.cli\n"
              "assert 'dataclasses' not in sys.modules\n")
    src = pathlib.Path(jetlift.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
