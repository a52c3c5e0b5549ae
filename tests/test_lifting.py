"""The order-by-order lifting loop on the log-field flagship and synthetic scenarios.

Expected jet values are frozen from closed forms computed by hand: the unperturbed
flagship flows x' = x, t' = 1 from (z, 0), so every x-derivative equals z; the
corrected perturbed field is (x + t*x^2) d/dx + d/dt, whose derivative coordinates
at (z, 0) are z, z, z + z^2, z + 5z^2, z + 17z^2 + 6z^3 (chain rule, order by order).
"""

import dataclasses
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlift import cli, lifting
from jetlift.algebra import Poly, monomial_inverse
from jetlift.cech import (TargetAtlas, field_to_chart0, field_to_chart1,
                          negate_exponents, uni, uni_x)
from jetlift.errors import (ClassificationError, InternalCheckError, LiftError,
                            LiftObstructedError, PreconditionError)
from jetlift.lifting import (defect_cochain, initial_state, lift_step,
                             lift_to_order, local_jet_section,
                             transition_jet_section)
from jetlift.scenario import parse_scenario
from jetlift.vectorfields import (TimeClass, VectorField, apply_derivation,
                                  time_component_class)

from strategies import fractions
from test_algebra import reference_poly_on_series
from test_cech import reference_push

FLAGSHIP = """
[y]        charts z w ; transition w = 1/z
[x]        vars x ; charts 2 ; transition x -> 1/x ; jacobian -x^-2
[f]        chart0: x = z ; chart1: x = w
[sheaf]    gen chart0: x ; gen chart1: -x
[sigma]    chart0: 1 ; chart1: 1
[window]   -8 8
[order]    4
"""

PERTURBED = FLAGSHIP.replace("[window]", "[perturb]  chart1: t * x^2\n[window]")

OBSTRUCTED = """
[y]        charts z w ; transition w = 1/z
[x]        vars x ; charts 2 ; transition x -> 1/x ; jacobian -x^-2
[f]        chart0: x = z ; chart1: x = w
[sheaf]    gen chart0: x^4 ; gen chart1: -1
[sigma]    chart0: 0 ; chart1: 0
[perturb]  chart1: -t*x^3
[window]   -4 4
[order]    3
"""

EMBEDDED = """
[y]        charts z w ; transition w = 1/z
[x]        vars x ; charts 1
[f]        chart0: x = z ; chart1: x = 1/w ; non-immersive
[sheaf]    gen chart0: 1 ; gen chart1: 1
[sigma]    chart0: 1 ; chart1: 1
[perturb]  chart1: t
[window]   -8 8
[order]    3
"""


def jets_of(result, chart, coord):
    return tuple(result.state.sections[chart][coord])


def rows_up_to(section, order):
    """Rows <= order of a jet section: the tower projection."""
    return tuple(coord[:order + 1] for coord in section)


class TestLocalJetSection:
    def _log_field(self):
        # x d/dx + d/dt on (x, t)
        x = Poly.variable(2, 0)
        return VectorField([x, Poly.one(2)])

    def test_flagship_section(self):
        section = local_jet_section(self._log_field(), [uni_x(1)], 3)
        z = uni_x(1)
        assert section[0] == (z, z, z, z)
        assert section[1] == (Poly.zero(1), Poly.one(1), Poly.zero(1), Poly.zero(1))

    def test_pure_time_flow(self):
        d = VectorField([Poly.zero(2), Poly.one(2)])
        section = local_jet_section(d, [uni({2: 1})], 2)
        assert section[0] == (uni({2: 1}), Poly.zero(1), Poly.zero(1))
        assert section[1] == (Poly.zero(1), Poly.one(1), Poly.zero(1))

    def test_constant_field_straight_line(self):
        c = Fraction(3, 2)
        d = VectorField([Poly.constant(2, c), Poly.one(2)])
        section = local_jet_section(d, [uni_x(1)], 3)
        assert section[0] == (uni_x(1), Poly.constant(1, c), Poly.zero(1),
                              Poly.zero(1))

    def test_requires_constant_flow(self):
        x = Poly.variable(2, 0)
        with pytest.raises(ClassificationError):
            local_jet_section(VectorField([x, Poly.zero(2)]), [uni_x(1)], 2)


def reference_evaluate_along_curve(p, morphism):
    """Restriction by substituting t -> 0 into every term."""
    return p.substitute(list(morphism) + [Poly.zero(1)])


def reference_local_jet_section(field, morphism, order):
    """Untruncated reference: build D^i x_k whole, then restrict it to the curve."""
    section = []
    for k in range(field.num_vars):
        p = Poly.variable(field.num_vars, k)
        row = [reference_evaluate_along_curve(p, morphism)]
        for _ in range(order):
            p = apply_derivation(field, p)
            row.append(reference_evaluate_along_curve(p, morphism))
        section.append(tuple(row))
    return tuple(section)


def laurent_polys(num_vars, exponents, max_terms):
    return st.dictionaries(st.tuples(*exponents), fractions(), max_size=max_terms).map(
        lambda terms: Poly(num_vars, terms, laurent=True))


@st.composite
def jet_section_cases(draw):
    """A constant-flow field with t-dependent terms and Laurent space exponents.

    One term has t-degree order + 1, which no row can see.  A space coordinate
    that carries a negative exponent is mapped to a Laurent monomial, so the
    reference can invert it; the others get any small Laurent polynomial.
    """
    q = draw(st.integers(min_value=1, max_value=2))
    order = draw(st.integers(min_value=0, max_value=6))
    space = [st.integers(min_value=-2, max_value=2)] * q
    comps = [draw(laurent_polys(q + 1, space + [st.integers(0, 2)], 2))
             for _ in range(q)]
    high = [draw(st.integers(min_value=-1, max_value=1)) for _ in range(q)]
    k = draw(st.integers(min_value=0, max_value=q - 1))
    comps[k] = comps[k] + Poly.monomial(q + 1, high + [order + 1],
                                        draw(fractions().filter(bool)), laurent=True)
    field = VectorField(comps + [Poly.one(q + 1)])
    morphism = []
    for j in range(q):
        if any(e[j] < 0 for c in comps for e in c.terms):
            morphism.append(Poly.monomial(1, [draw(st.integers(-2, 2))],
                                          draw(fractions().filter(bool)), laurent=True))
        else:
            morphism.append(draw(laurent_polys(1, [st.integers(-2, 2)], 2)))
    return field, tuple(morphism), order


@settings(max_examples=80, deadline=None)
@given(jet_section_cases())
def test_jet_section_matches_untruncated_reference(case):
    field, morphism, order = case
    assert (local_jet_section(field, morphism, order)
            == reference_local_jet_section(field, morphism, order))


class TestUnperturbedFlagship:
    def test_final_jets(self):
        result = lift_to_order(parse_scenario(FLAGSHIP), 4)
        z = uni_x(1)
        assert jets_of(result, 0, 0) == (z, z, z, z, z)
        assert jets_of(result, 0, 1) == (Poly.zero(1), Poly.one(1), Poly.zero(1),
                                         Poly.zero(1), Poly.zero(1))

    def test_no_corrections_needed(self):
        result = lift_to_order(parse_scenario(FLAGSHIP), 4)
        assert all(step.nu.is_zero() for step in result.steps)
        assert all(step.lam is None for step in result.steps)

    def test_order_one_returns_input(self):
        result = lift_to_order(parse_scenario(FLAGSHIP), 1)
        assert result.steps == []
        assert result.state.order == 1
        z = uni_x(1)
        assert jets_of(result, 0, 0) == (z, z)

    def test_chart1_sees_the_mirror_flow(self):
        result = lift_to_order(parse_scenario(FLAGSHIP), 3)
        w = uni_x(1)
        assert jets_of(result, 1, 0) == (w, -w, w, -w)


class TestPerturbedFlagship:
    def test_order_two_defect_and_splitting(self):
        result = lift_to_order(parse_scenario(PERTURBED), 4)
        first = result.steps[0]
        assert first.order_from == 1
        assert first.nu.nu01 == (uni({1: -1}),)          # coefficient -z
        assert first.lam.chart0 == (uni({1: -1}),)       # lambda_0 = -z * gen
        assert first.lam.chart1 == (Poly.zero(1),)       # lambda_1 = 0
        assert "-[D0,D1]" in first.orientation

    def test_later_steps_have_zero_defect(self):
        result = lift_to_order(parse_scenario(PERTURBED), 4)
        assert [s.nu.is_zero() for s in result.steps] == [False, True, True]

    def test_corrected_jets_match_hand_computation(self):
        result = lift_to_order(parse_scenario(PERTURBED), 4)
        z = uni_x(1)
        z2, z3 = uni({2: 1}), uni({3: 1})
        assert jets_of(result, 0, 0) == (z, z, z + z2, z + 5 * z2,
                                         z + 17 * z2 + 6 * z3)
        assert jets_of(result, 0, 1) == (Poly.zero(1), Poly.one(1), Poly.zero(1),
                                         Poly.zero(1), Poly.zero(1))

    def test_correction_field(self):
        result = lift_to_order(parse_scenario(PERTURBED), 2)
        e0, e1 = result.steps[0].corrections
        assert e0 == VectorField([(-uni({2: 1})).reindex(2, (0,)), Poly.zero(2)])
        assert e1 is None

    def test_fields_remain_constant_flow(self):
        result = lift_to_order(parse_scenario(PERTURBED), 4)
        for f in result.state.fields:
            assert time_component_class(f) is TimeClass.CONSTANT_FLOW

    def test_glue_check_catches_a_wrong_correction(self, monkeypatch):
        # twice the correction leaves the chart-0 candidate off by the defect
        state = initial_state(parse_scenario(PERTURBED))
        extend = lifting._extend_to_field
        monkeypatch.setattr(lifting, "_extend_to_field",
                            lambda *args: extend(*args).scale(2))
        with pytest.raises(InternalCheckError, match="nonzero defect"):
            lift_step(state)

    def test_tower_property(self):
        full = lift_to_order(parse_scenario(PERTURBED), 4)
        for n in range(1, 4):
            partial = lift_to_order(parse_scenario(PERTURBED), n)
            for chart in (0, 1):
                assert rows_up_to(full.state.sections[chart], n) == \
                    partial.state.sections[chart]


class TestObstructedScenario:
    def test_lift_obstructed(self):
        with pytest.raises(LiftObstructedError) as err:
            lift_to_order(parse_scenario(OBSTRUCTED), 3)
        assert err.value.order == 1
        assert err.value.cokernel_dim == 1
        assert err.value.residual == (uni_x(-1),)

    def test_sheaf_transition_is_degree_minus_two(self):
        scenario = parse_scenario(OBSTRUCTED)
        assert scenario.sheaf.transition[0][0] == uni_x(-2)


class TestEmbeddedScenario:
    def test_embedding_shape(self):
        scenario = parse_scenario(EMBEDDED)
        assert scenario.atlas.names == ("y", "x")
        # y -> 1/y, and x keeps the identity of its one-chart target
        assert scenario.atlas.transition == (Poly(2, {(-1, 0): 1}, laurent=True),
                                             Poly.variable(2, 1))

    def test_lift_completes_with_one_correction(self):
        result = lift_to_order(parse_scenario(EMBEDDED), 3)
        assert [s.nu.is_zero() for s in result.steps] == [False, True]
        # jets of the y coordinate never move: the embedded generators have no
        # component along the curve factor
        assert jets_of(result, 0, 0) == (uni_x(1), Poly.zero(1), Poly.zero(1),
                                         Poly.zero(1))

    def test_two_chart_target_keeps_its_transition(self):
        # the graph of the flagship morphism: y -> 1/y joins x -> 1/x, and the
        # x jets are those of the plain flagship
        text = PERTURBED.replace("chart1: x = w", "chart1: x = w ; non-immersive")
        scenario = parse_scenario(text)
        y, x = Poly.variable(2, 0), Poly.variable(2, 1)
        assert scenario.atlas.names == ("y", "x")
        assert scenario.atlas.transition == (monomial_inverse(y),
                                             monomial_inverse(x))
        plain = lift_to_order(parse_scenario(PERTURBED), 4)
        embedded = lift_to_order(scenario, 4)
        for chart in (0, 1):
            assert jets_of(embedded, chart, 1) == jets_of(plain, chart, 0)
            assert jets_of(embedded, chart, 2) == jets_of(plain, chart, 1)


class TestDefectCochain:
    def _scenario(self):
        return parse_scenario(PERTURBED)

    def test_precondition_checks_lower_orders(self):
        scenario = self._scenario()
        state = initial_state(scenario)
        good = [local_jet_section(state.fields[c],
                                  scenario.sheaf.morphism.components(c), 2)
                for c in (0, 1)]
        # break the order-1 part of chart 0
        broken = list(good)
        sec = [list(row) for row in good[0]]
        sec[0][1] = sec[0][1] + Poly.one(1)
        broken[0] = tuple(tuple(row) for row in sec)
        crossed = [broken[0],
                   reference_transition_jet_section(scenario.atlas, broken[1], 2)]
        with pytest.raises(PreconditionError):
            defect_cochain(scenario.sheaf, crossed, 2, state.window,
                           fields=state.fields)

    def test_square_time_perturbation_is_invisible_at_order_two(self):
        # t^2-perturbations only show up from order three on
        scenario = parse_scenario(
            PERTURBED.replace("t * x^2", "t^2 * x^2"))
        state = initial_state(scenario)
        state, step = lift_step(state)
        assert step.nu.is_zero()
        state, step = lift_step(state)
        assert not step.nu.is_zero()

    def test_shared_global_field_has_zero_defect(self):
        scenario = parse_scenario(FLAGSHIP)
        state = initial_state(scenario)
        candidates = [local_jet_section(state.fields[c],
                                        scenario.sheaf.morphism.components(c), 2)
                      for c in (0, 1)]
        crossed = [candidates[0],
                   reference_transition_jet_section(scenario.atlas, candidates[1], 2)]
        nu, orientation = defect_cochain(scenario.sheaf, crossed, 2,
                                         state.window, fields=state.fields)
        assert nu.is_zero() and orientation == "zero defect"


class TestFieldTransport:
    def test_round_trip(self):
        scenario = parse_scenario(FLAGSHIP)
        atlas = scenario.atlas
        x = Poly.variable(2, 0)
        t = Poly.variable(2, 1)
        field = VectorField([x ** 2 + t * x, Poly.one(2)])
        there = field_to_chart1(atlas, field)
        back = field_to_chart0(atlas, there)
        assert back == field

    def test_log_field_is_global(self):
        scenario = parse_scenario(FLAGSHIP)
        x = Poly.variable(2, 0)
        chart0 = VectorField([x, Poly.one(2)])
        chart1 = VectorField([-x, Poly.one(2)])
        assert field_to_chart1(scenario.atlas, chart0) == chart1


def laurent_monomials(num_vars):
    return st.builds(
        lambda e, c: Poly.monomial(num_vars, e, c, laurent=True),
        st.tuples(*[st.integers(-2, 2)] * num_vars), fractions().filter(bool))


@st.composite
def overlap_cases(draw):
    """A monomial atlas, a field on both charts' variables and a chart-1 curve.

    Chart-0 coordinate k is c_k * x_(j_k)^(+-1) for a random permutation j of
    q = 1-2 coordinates and nonzero c_k.  Every space coordinate of the curve
    is a Laurent monomial, so any of them can be inverted.
    """
    q = draw(st.integers(min_value=1, max_value=2))
    perm = draw(st.permutations(range(q)))
    transition = []
    for j in perm:
        exps = [0] * q
        exps[j] = draw(st.sampled_from((1, -1)))
        transition.append(Poly.monomial(q, exps, draw(fractions().filter(bool)),
                                        laurent=True))
    atlas = TargetAtlas(("x", "y")[:q], transition)
    exponents = [st.integers(-2, 2)] * q + [st.integers(0, 2)]
    field = VectorField([draw(laurent_polys(q + 1, exponents, 3))
                         for _ in range(q + 1)])
    order = draw(st.integers(min_value=0, max_value=4))
    morphism = tuple(draw(laurent_monomials(1)) for _ in range(q))
    return atlas, field, morphism, order


def reference_transition_jet_section(atlas, section, order):
    """General composition: Taylor form, each transition formula on the series, back."""
    q = atlas.num_coords
    taylor = [[negate_exponents(p) * Fraction(1, factorial(i))
               for i, p in enumerate(coord)] for coord in section]
    composed = [reference_poly_on_series(g, taylor[:q], order, Poly.zero(1),
                                         Poly.one(1), monomial_inverse)
                for g in atlas.transition]
    composed.append(taylor[q])
    return tuple(tuple(c * factorial(i) for i, c in enumerate(coord))
                 for coord in composed)


@settings(max_examples=150, deadline=None)
@given(overlap_cases())
def test_overlap_crossing_matches_general_transition(case):
    # the engine's crossing of chart 1's flow is the general composition of
    # the transition with chart 1's jet section
    atlas, field, morphism, order = case
    assert field_to_chart0(atlas, field_to_chart1(atlas, field)) == field
    assert field_to_chart1(atlas, field_to_chart0(atlas, field)) == field
    assert (field_to_chart0(atlas, field)
            == reference_push(atlas.transition, atlas.inverse, field))
    q = atlas.num_coords
    flow = VectorField(field.components[:q] + (Poly.one(q + 1),))
    section, crossing = transition_jet_section(atlas, flow, morphism, order)
    assert section == local_jet_section(flow, morphism, order)
    assert crossing == reference_transition_jet_section(atlas, section, order)


PERMUTED = """
[y]        charts z w ; transition w = 1/z
[x]        vars x, y ; charts 2 ; transition x -> 2*y ; transition y -> 1/x
[f]        chart0: x = 2, y = z ; chart1: x = w, y = 1
[sheaf]    gen chart0: 0, y ; gen chart1: -x, 0
[sigma]    chart0: 1 ; chart1: 1
[window]   -8 8
"""

# (scenario without [perturb], the perturbation components with {} for the
# drawn terms): the log field, the degree -2 presentation, and the permuted
# atlas x0 = 2*y1, y0 = 1/x1, perturbed along its curve coordinate y
TOWER_BASES = {
    "log-field": (FLAGSHIP, "{}"),
    "degree-2": (OBSTRUCTED.replace("[perturb]  chart1: -t*x^3\n", ""), "{}"),
    "permuted": (PERMUTED, "0, {}"),
}


@st.composite
def tower_cases(draw):
    """A base scenario with random perturbation terms t^a*v^b on one or both charts."""
    name = draw(st.sampled_from(sorted(TOWER_BASES)))
    text, components = TOWER_BASES[name]
    var = "y" if name == "permuted" else "x"
    term = st.builds(lambda c, a, b: f"{c}*t^{a}*{var}^{b}",
                     st.sampled_from(("1", "-1", "1/2", "-2/3", "3")),
                     st.integers(1, 2), st.integers(0, 5))
    charts = draw(st.sampled_from(((0,), (1,), (0, 1))))
    clauses = []
    for c in charts:
        terms = " + ".join(draw(st.lists(term, min_size=1, max_size=2)))
        clauses.append(f"chart{c}: " + components.format(terms.replace("+ -", "- ")))
    order = draw(st.integers(min_value=2, max_value=6))
    return text + "[perturb]  " + " ; ".join(clauses) + "\n", order


def assert_carried_state_is_recomputed(state):
    scenario = state.scenario
    for chart in (0, 1):
        assert state.sections[chart] == local_jet_section(
            state.fields[chart], scenario.morphism.components(chart), state.order)
    assert state.crossing == reference_transition_jet_section(
        scenario.atlas, state.sections[1], state.order)


@settings(max_examples=40, deadline=None)
@given(tower_cases())
def test_carried_tower_matches_recomputation(case):
    # each step carries rows <= n and adds one; a from-scratch jet section and
    # the general transition must see the same state after every step
    text, order = case
    state = initial_state(parse_scenario(text))
    assert_carried_state_is_recomputed(state)
    while state.order < order:
        try:
            state, _ = lift_step(state)
        except LiftObstructedError:
            break
        assert_carried_state_is_recomputed(state)


def _with_wrong_top_row(state, chart):
    sections = list(state.sections)
    sections[chart] = tuple(coord[:-1] + (coord[-1] + Poly.one(1),)
                            for coord in sections[chart])
    return dataclasses.replace(state, sections=tuple(sections))


class TestFinalRecomputation:
    def test_wrong_carried_section_is_caught(self, monkeypatch):
        step = lifting.lift_step

        def skewed(state):
            new_state, record = step(state)
            return _with_wrong_top_row(new_state, 1), record
        monkeypatch.setattr(lifting, "lift_step", skewed)
        with pytest.raises(InternalCheckError, match="carried jet sections"):
            lift_to_order(parse_scenario(PERTURBED), 2)

    def test_wrong_carried_crossing_is_caught(self, monkeypatch):
        start = lifting.initial_state

        def skewed(scenario):
            state = start(scenario)
            return dataclasses.replace(
                state, crossing=_with_wrong_top_row(state, 0).sections[0])
        monkeypatch.setattr(lifting, "initial_state", skewed)
        with pytest.raises(InternalCheckError, match="carried overlap crossing"):
            lift_to_order(parse_scenario(PERTURBED), 1)

    @staticmethod
    def _move_a_carried_row(monkeypatch):
        # after the corrected step 1 -> 2, chart 0's field gains the t-free
        # term x^2 d/dx, which moves row 1; the step's sections stay as carried
        step = lifting.lift_step

        def moved(state):
            new_state, record = step(state)
            assert record.corrections[0] is not None
            extra = VectorField([Poly.monomial(2, (2, 0), 1), Poly.zero(2)])
            fields = (new_state.fields[0] + extra, new_state.fields[1])
            return dataclasses.replace(new_state, fields=fields), record
        monkeypatch.setattr(lifting, "lift_step", moved)

    def test_corrected_field_that_moves_a_carried_row_is_caught(self, monkeypatch):
        self._move_a_carried_row(monkeypatch)
        with pytest.raises(InternalCheckError, match="carried jet sections"):
            lift_to_order(parse_scenario(PERTURBED), 2)

    def test_moved_carried_row_exits_3(self, monkeypatch, capsys, tmp_path):
        self._move_a_carried_row(monkeypatch)
        path = tmp_path / "perturbed.scn"
        path.write_text(PERTURBED, encoding="utf-8")
        code = cli.main(["lift", "--scenario", str(path), "--order", "2"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == ("internal check failed: carried jet sections "
                                "differ from a recomputation\n")

    def test_obstructed_lift_is_rechecked_first(self, monkeypatch):
        # the defect reads chart 1 through the crossing, so only the final
        # recomputation sees its section
        start = lifting.initial_state
        monkeypatch.setattr(lifting, "initial_state",
                            lambda scenario: _with_wrong_top_row(start(scenario), 1))
        with pytest.raises(InternalCheckError, match="carried jet sections"):
            lift_to_order(parse_scenario(OBSTRUCTED), 3)


CHART0_T = FLAGSHIP.replace("[window]", "[perturb]  chart0: t\n[window]")


class TestChartOneCorrection:
    """The flagship perturbed by t in chart 0: step 1 -> 2 corrects chart 1 alone."""

    def test_crossing_follows_the_correction(self):
        state = initial_state(parse_scenario(CHART0_T))
        records = []
        while state.order < 4:
            state, record = lift_step(state)
            records.append(record)
            assert_carried_state_is_recomputed(state)
        assert records[0].corrections == (
            None, VectorField([Poly.monomial(2, (2, 0), 1), Poly.zero(2)]))
        assert records[0].lam.chart1 == (uni({1: -1}),)
        assert [r.nu.is_zero() for r in records] == [False, True, True]

    def test_crossing_row_from_before_the_correction_is_caught(self, monkeypatch):
        # the corrected step keeps the crossing row of chart 1's candidate
        step = lifting.lift_step

        def stale(state):
            new_state, record = step(state)
            assert record.corrections[1] is not None
            n = new_state.order
            candidate = local_jet_section(
                state.fields[1], state.scenario.morphism.components(1), n)
            row = tuple(coord[n] for coord in reference_transition_jet_section(
                state.scenario.atlas, candidate, n))
            assert row != tuple(coord[n] for coord in new_state.crossing)
            crossing = tuple(coord[:n] + (p,)
                             for coord, p in zip(new_state.crossing, row))
            return dataclasses.replace(new_state, crossing=crossing), record
        monkeypatch.setattr(lifting, "lift_step", stale)
        with pytest.raises(InternalCheckError, match="carried overlap crossing"):
            lift_to_order(parse_scenario(CHART0_T), 2)


class TestScenarioValidation:
    def test_sigma_must_be_global(self):
        bad = FLAGSHIP.replace("[sigma]    chart0: 1 ; chart1: 1",
                               "[sigma]    chart0: z ; chart1: 1")
        with pytest.raises(LiftError):
            lift_to_order(parse_scenario(bad), 2)

    def test_perturbation_must_vanish_at_time_zero(self):
        bad = PERTURBED.replace("t * x^2", "x^2")
        with pytest.raises(LiftError):
            lift_to_order(parse_scenario(bad), 2)

    @pytest.mark.parametrize("term", ["t^-1 * x^2", "t * x^2 + t^-2"])
    def test_perturbation_rejects_negative_time_powers(self, term):
        # a t^-k term does not vanish at t = 0, and the jet engine and the
        # bracket, both graded by t, read t-exponents as non-negative
        bad = PERTURBED.replace("t * x^2", term)
        with pytest.raises(LiftError, match="perturbations must vanish at t = 0"):
            lift_to_order(parse_scenario(bad), 2)
