"""Cochains, restriction, coboundaries, and exact splitting/obstruction solving."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlift.algebra import Poly
from jetlift.cech import (Cochain0, Cochain1, MorphismData, Obstruction,
                          PresentedSheaf, TargetAtlas, coboundary, cocycle_check,
                          negate_exponents, restrict_section,
                          solve_coboundary, uni, uni_x)
from jetlift.errors import JetliftError, LiftError, TransitionError, WindowOverflowError
from jetlift.vectorfields import VectorField

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
        out = restrict_section(TRIVIAL, 0, [uni({1: 1, 0: 1})], W)
        assert out[0] == uni({1: 1, 0: 1})

    def test_chart1_substitution(self):
        out = restrict_section(TRIVIAL, 1, [uni_x(1)], W)
        assert out[0] == uni_x(-1)

    def test_tangent_sheaf_rule(self):
        # d/dz = -w^2 d/dw: transition factor -z^2, so the chart-1 coefficient
        # -w (the field -w d/dw) restricts to chart 0 as z (the field z d/dz)
        sheaf = PresentedSheaf.line_bundle(uni({2: -1}))
        out = restrict_section(sheaf, 1, [uni({1: -1})], W)
        assert out[0] == uni_x(1)

    def test_window_overflow(self):
        sheaf = PresentedSheaf.line_bundle(uni_x(-2))
        with pytest.raises(WindowOverflowError) as err:
            restrict_section(sheaf, 1, [uni({4: 1})], (-4, 4))
        assert err.value.required_window == (-6, 4)


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


class TestCocycle:
    def test_coboundaries_are_cocycles(self):
        lam = Cochain0(TRIVIAL, [uni({2: 3})], [uni({1: -2})], W)
        assert cocycle_check(coboundary(lam))

    def test_antisymmetric_pair(self):
        nu = Cochain1(TRIVIAL, [uni_x(1)], [uni({1: -1})], W)
        assert cocycle_check(nu)

    def test_non_antisymmetric_pair(self):
        nu = Cochain1(TRIVIAL, [uni_x(1)], [uni_x(1)], W)
        assert not cocycle_check(nu)


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
            assert coboundary(lam, window) == nu

    def test_degree_minus_two_cokernel_is_one_dimensional(self):
        # h^1 of the degree -2 twist is 1; the window does not change that
        sheaf = PresentedSheaf.line_bundle(uni_x(-2))
        for width in (3, 4, 6):
            nu = Cochain1.from_nu01(sheaf, [uni_x(-1)], (-width, width))
            result = solve_coboundary(nu)
            assert isinstance(result, Obstruction)
            assert result.cokernel_dim == 1

    def test_degree_minus_two_class_at_wide_window(self):
        # an 801 x 800 system: the scale that sparse elimination is for
        sheaf = PresentedSheaf.line_bundle(uni_x(-2))
        nu = Cochain1.from_nu01(sheaf, [uni_x(-1)], (-400, 400))
        result = solve_coboundary(nu)
        assert isinstance(result, Obstruction)
        assert result.residual == (uni_x(-1),)
        assert result.cokernel_dim == 1

    def test_rank_two_residual_representative(self):
        # transition [[z, 2/3 z^-1], [0, z^-3]]: the second row has the gap
        # z^-1, z^-2, and the first-row part of nu is absorbed by coboundaries.
        # The row order (component-major, exponent ascending) fixes this
        # representative of the class.
        gen = VectorField([Poly.one(2), Poly.zero(2)])
        sheaf = PresentedSheaf(None, None, [gen, gen], [gen, gen],
                               [[uni_x(1), uni_x(-1) * Fraction(2, 3)],
                                [Poly.zero(1), uni_x(-3)]])
        nu = [uni({-2: 1, -1: Fraction(1, 2), 3: 1}), uni({-2: 2, -1: -1, 1: 1})]
        for window in ((-6, 6), (-16, 16)):
            result = solve_coboundary(Cochain1.from_nu01(sheaf, nu, window))
            assert isinstance(result, Obstruction)
            assert result.residual == (Poly.zero(1), uni({-1: -1, -2: 2}))
            assert result.cokernel_dim == 3


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
    assert cocycle_check(nu)


class TestPresentedSheafFromCharts:
    def _flagship(self):
        x = Poly.variable(1, 0)
        atlas = TargetAtlas(("x",), 2, [uni_x(-1)])
        morphism = MorphismData((x,), (x,))
        gen0 = VectorField([x.reindex(2, (0,)), Poly.zero(2)])
        gen1 = VectorField([(-x).reindex(2, (0,)), Poly.zero(2)])
        return PresentedSheaf.from_charts(atlas, morphism, [gen0], [gen1])

    def test_log_field_transition_is_trivial(self):
        sheaf = self._flagship()
        assert sheaf.transition[0][0] == Poly.one(1)

    def test_degree_minus_two_presentation(self):
        x = Poly.variable(1, 0)
        atlas = TargetAtlas(("x",), 2, [uni_x(-1)])
        morphism = MorphismData((x,), (x,))
        gen0 = VectorField([(x ** 4).reindex(2, (0,)), Poly.zero(2)])
        gen1 = VectorField([(-Poly.one(1)).reindex(2, (0,)), Poly.zero(2)])
        sheaf = PresentedSheaf.from_charts(atlas, morphism, [gen0], [gen1])
        assert sheaf.transition[0][0] == uni_x(-2)

    def test_inconsistent_morphism_rejected(self):
        x = Poly.variable(1, 0)
        atlas = TargetAtlas(("x",), 2, [uni_x(-1)])
        morphism = MorphismData((x,), (x + 1,))
        gen = VectorField([x.reindex(2, (0,)), Poly.zero(2)])
        with pytest.raises(LiftError):
            PresentedSheaf.from_charts(atlas, morphism, [gen], [gen])

    def test_nonzero_time_component_rejected(self):
        x = Poly.variable(1, 0)
        atlas = TargetAtlas(("x",), 2, [uni_x(-1)])
        morphism = MorphismData((x,), (x,))
        bad = VectorField([x.reindex(2, (0,)), Poly.one(2)])
        with pytest.raises(LiftError):
            PresentedSheaf.from_charts(atlas, morphism, [bad], [bad])


class TestTargetAtlas:
    def test_inverse_of_reciprocal(self):
        atlas = TargetAtlas(("x",), 2, [uni_x(-1)])
        assert atlas.inverse[0] == uni_x(-1)

    def test_declared_jacobian_matches(self):
        atlas = TargetAtlas(("x",), 2, [uni_x(-1)])
        assert atlas.jacobian()[0][0] == uni({-2: -1})

    def test_non_monomial_transition_rejected(self):
        with pytest.raises(LiftError):
            TargetAtlas(("x",), 2, [uni({1: 1, 0: 1})])

    def test_negate_exponents(self):
        assert negate_exponents(uni({2: 1, -1: 3})) == uni({-2: 1, 1: 3})
