"""Order-by-order lifting of infinitesimal deformations along a presented subsheaf.

State at order n holds, per chart, a constant-flow witness field and the jet section
it induces along the curve, and the chart-1 section read in chart 0 (the
crossing, itself a jet section).  Rows <= n of all three are fixed from then on,
so one step computes only row n + 1 of each.  It measures the overlap defect as
an affine jet difference (cross-checked against the iterated Lie bracket of the
witness fields, built graded by t alone so that only the terms that reach t^0 on
the curve are formed), splits the defect cochain, extends each chart's
correction to a vector field, and replaces D with D - (t^n/n!) E.  Every new
row, corrected or not, is the top row of the chart's current field, and on
every step the two charts must then glue exactly.  The carried rows <= n are
not re-derived during the loop: before `lift_to_order` returns, or reports an
obstruction, both sections and the crossing are rebuilt from scratch at the
order reached and must equal the carried ones, so a correction that moved a
carried row ends in `InternalCheckError`.

A candidate section is the flow jet of the witness field along f(Y) at t = 0.  It
comes from the jet engine that `flows.flow_jet` uses, `derivation_powers`, graded
by t alone: after the i-th of n derivations a term of t-degree above n - i can
never reach t^0, so it is dropped, and each row is restricted to the curve by
keeping its t^0 terms.  The engine runs on Python ints: with L the lcm of the
witness field's coefficient denominators, it builds (L*D)^i and divides row i
by L^i once, so the rows it returns are the exact rational D^i.  Chart 1's run
also yields the crossing: it starts from chart 1's coordinates and from the
inverses x_j^-1 that chart 0 reads (`cech.crossing_starts`), so each of its
rows is one row of chart 1's section and, read by `cech.cross_row`, one row of
the crossing; nothing is inverted.  Every reading of the target overlap
(pushing fields, which starts chart 0 reads, c * row) comes from `cech`, next
to the atlas it reads; this module runs the engine and the loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import factorial
from typing import List, Optional, Sequence, Tuple

from .algebra import Poly
from .cech import (Cochain0, Cochain1, CurveAtlas, JetSection, MorphismData,
                   Obstruction, PresentedSheaf, TargetAtlas, cross_row,
                   crossing_starts, evaluate_along_curve, field_to_chart0,
                   field_to_chart1, restrict_section, solve_coboundary,
                   solve_section_coordinates)
from .errors import (ClassificationError, DimensionError, InternalCheckError,
                     LiftError, LiftObstructedError, OrderError,
                     PreconditionError)
from .limits import MAX_ORDER, check_limit
from .vectorfields import (TimeClass, VectorField, derivation_powers,
                           iterated_bracket, time_component_class)

__all__ = [
    "LiftScenario",
    "LiftState",
    "LiftStep",
    "LiftResult",
    "local_jet_section",
    "transition_jet_section",
    "defect_cochain",
    "lift_step",
    "lift_to_order",
]

@dataclass(frozen=True)
class LiftScenario:
    """Everything the lifting engine needs, already in engine form."""
    curve: CurveAtlas
    sheaf: PresentedSheaf
    sigma: Tuple[Tuple[Poly, ...], Tuple[Poly, ...]]     # per chart, s coefficients
    perturbations: Tuple[Optional[Tuple[Poly, ...]], ...]  # chart-0 frame, per chart
    window: Tuple[int, int]
    order: int

    @property
    def atlas(self) -> TargetAtlas:
        return self.sheaf.atlas

    @property
    def morphism(self) -> MorphismData:
        return self.sheaf.morphism


@dataclass(frozen=True)
class LiftState:
    scenario: LiftScenario
    order: int
    fields: Tuple[VectorField, VectorField]
    sections: Tuple[JetSection, JetSection]
    window: Tuple[int, int]
    crossing: JetSection       # sections[1] read in chart 0, z-rows like sections[0]


@dataclass(frozen=True)
class LiftStep:
    order_from: int
    nu: Cochain1
    lam: Optional[Cochain0]
    orientation: str
    corrections: Tuple[Optional[VectorField], Optional[VectorField]]


@dataclass
class LiftResult:
    scenario: LiftScenario
    state: LiftState
    steps: List[LiftStep] = dataclass_field(default_factory=list)

    def render(self) -> str:
        sc = self.scenario
        z, w = sc.curve.z_name, sc.curve.w_name
        lines = []
        for step in self.steps:
            n = step.order_from
            lines.append(f"== step {n} -> {n + 1} ==")
            lines.append("nu_01 = " + _render_coefficients(step.nu.nu01, z))
            if step.lam is None:
                lines.append("defect zero; no correction")
            else:
                lines.append("lambda chart0 = "
                             + _render_coefficients(step.lam.chart0, z))
                lines.append("lambda chart1 = "
                             + _render_coefficients(step.lam.chart1, w))
                for chart, corr in enumerate(step.corrections):
                    if corr is None:
                        continue
                    lines.append(
                        f"correction chart{chart}: D -= t^{n}/{n}! * E, "
                        f"E = ({corr.render(sc.atlas.names + ('t',))})")
            lines.append(f"bracket cross-check: {step.orientation}")
            lines.append("defect after correction: 0")
            lines.append("tower projection: ok")
        lines.append(f"== final jets (order {self.state.order}) ==")
        for chart in (0, 1):
            param = sc.curve.param_name(chart)
            names = sc.atlas.names + ("t",)
            section = self.state.sections[chart]
            for k, coord_name in enumerate(names):
                jets = ",".join(p.render([param], compact=True) for p in section[k])
                lines.append(f"chart{chart} {coord_name}: ({jets})")
        return "\n".join(lines)


def _render_coefficients(coeffs: Sequence[Poly], param: str) -> str:
    if all(p.is_zero() for p in coeffs):
        return "0"
    if len(coeffs) == 1:
        return f"({coeffs[0].render([param])}) * g0"
    return " + ".join(f"({p.render([param])}) * g{k}" for k, p in enumerate(coeffs))


# -- jet sections --------------------------------------------------------------

def local_jet_section(field: VectorField, morphism: Sequence[Poly],
                      order: int) -> JetSection:
    """Symbolic flow jet along the curve: entry [k][i] = (D^i coord_k)(f(param), 0).

    The field must have constant flow in time (time component identically 1); the
    morphism gives the space coordinates as Laurent polynomials in the parameter.
    Row i is read off `derivation_powers` graded by t alone: only its t^0 terms
    survive the restriction to the curve.
    """
    powers = _derivation_rows(field, morphism, order)
    return tuple(tuple(evaluate_along_curve(row[k], morphism) for row in powers)
                 for k in range(field.num_vars))


def transition_jet_section(atlas: TargetAtlas, field: VectorField,
                           morphism: Sequence[Poly],
                           order: int) -> Tuple[JetSection, JetSection]:
    """Chart 1's jet section and its crossing into chart 0, from one engine run.

    `field` and `morphism` are chart 1's.  The run starts from
    `cech.crossing_starts`, so entry [k][i] of the section is that of
    `local_jet_section`, and row i of the crossing is `cech.cross_row` of
    the run's row i.
    """
    rows = [tuple(evaluate_along_curve(p, morphism) for p in row)
            for row in _derivation_rows(field, morphism, order,
                                        crossing_starts(atlas))]
    section = tuple(zip(*(row[:field.num_vars] for row in rows)))
    crossing = tuple(zip(*(cross_row(atlas, row) for row in rows)))
    return section, crossing


def _top_jet_row(field: VectorField, morphism: Sequence[Poly], order: int,
                 starts: Optional[Sequence[Tuple[int, ...]]] = None
                 ) -> Tuple[Poly, ...]:
    """Row `order` of the engine run alone, restricted to the curve, per start."""
    top = _derivation_rows(field, morphism, order, starts)[order]
    return tuple(evaluate_along_curve(p, morphism) for p in top)


def _derivation_rows(field: VectorField, morphism: Sequence[Poly], order: int,
                     starts: Optional[Sequence[Tuple[int, ...]]] = None):
    if time_component_class(field) is not TimeClass.CONSTANT_FLOW:
        raise ClassificationError(
            "jet sections require a field with constant flow in time")
    n_coords = field.num_vars
    if len(morphism) != n_coords - 1:
        raise DimensionError("morphism must cover every space coordinate")
    weights = (0,) * (n_coords - 1) + (1,)
    return derivation_powers(field.components, order, weights, starts)


# -- defects --------------------------------------------------------------------

def defect_cochain(sheaf: PresentedSheaf, candidates: Sequence[JetSection],
                   order: int, window: Tuple[int, int],
                   fields: Sequence[VectorField]):
    """Affine difference of order-(order) candidates on the overlap, as a cochain.

    Both candidates come in chart-0 data: chart 0's own, and chart 1's read
    across the overlap (the crossing of `transition_jet_section`, or a carried
    one).  They must agree below top order (checked exactly).  The tangential
    difference is re-expressed in generator coefficients and cross-checked
    against the iterated Lie bracket of the witness fields; the matching
    orientation is reported.
    """
    atlas = sheaf.atlas
    tau0, tau1_in_0 = candidates
    for i in range(order):
        for k in range(atlas.num_coords + 1):
            if tau0[k][i] != tau1_in_0[k][i]:
                raise PreconditionError(
                    f"candidate sections disagree at order {i} "
                    f"(coordinate {k}): {tau0[k][i]} != {tau1_in_0[k][i]}")
    diff = [tau0[k][order] - tau1_in_0[k][order]
            for k in range(atlas.num_coords + 1)]
    if not diff[-1].is_zero():
        raise LiftError("defect has a nonzero time component")
    tangent = diff[:-1]

    coeffs = solve_section_coordinates(sheaf.gens_along_curve(0), tangent, window)
    if coeffs is None:
        raise LiftError(
            "defect is not a generator combination within the window; "
            "the scenario does not deform along the presented sheaf")
    nu = Cochain1(sheaf, coeffs, window)
    return nu, _bracket_orientation(sheaf, fields, tangent, order)


def _bracket_orientation(sheaf: PresentedSheaf, fields: Sequence[VectorField],
                         tangent: Sequence[Poly], order: int) -> str:
    """Compare the measured defect with the iterated bracket of the witnesses.

    The curve lies at t = 0, so only the t^0 terms of the bracket are read: it
    is built graded by t alone, and a term that cannot reach t^0 is never
    formed (see `iterated_bracket`).
    """
    atlas = sheaf.atlas
    d0 = fields[0]
    d1 = field_to_chart0(atlas, fields[1])
    bracket = iterated_bracket(d0, d1, order, (0,) * atlas.num_coords + (1,))
    f0 = sheaf.morphism.components(0)
    values = [evaluate_along_curve(c, f0) for c in bracket.components[:-1]]
    if all(p.is_zero() for p in tangent) and all(v.is_zero() for v in values):
        return "zero defect"
    if all((a - b).is_zero() for a, b in zip(values, tangent)):
        return "matched nu = +[D0,D1]^(%d) along the curve" % order
    if all((a + b).is_zero() for a, b in zip(values, tangent)):
        return "matched nu = -[D0,D1]^(%d) along the curve" % order
    raise InternalCheckError("defect does not match the iterated bracket either way")


# -- the lifting loop -------------------------------------------------------------

def _identity_coordinate(morphism: Sequence[Poly]) -> Optional[int]:
    """Index of a space coordinate on which the morphism is the parameter itself."""
    param = Poly.variable(1, 0)
    for k, p in enumerate(morphism):
        if p == param:
            return k
    return None


def _extend_to_field(sheaf: PresentedSheaf, chart: int,
                     coefficients: Sequence[Poly]) -> VectorField:
    """Extend overlap coefficients to a field: read them in the identity coordinate."""
    if all(p.is_zero() for p in coefficients):
        q = sheaf.atlas.num_coords
        return VectorField.zero(q + 1)
    for p in coefficients:
        if not p.is_polynomial():
            raise LiftError(
                "corrections must be chart-polynomial to extend off the curve")
    idx = _identity_coordinate(sheaf.morphism.components(chart))
    if idx is None:
        raise LiftError(
            f"chart {chart} has no identity coordinate; flag the scenario "
            "non-immersive so the graph embedding provides one")
    q = sheaf.atlas.num_coords
    acc = VectorField.zero(q + 1)
    for c, gen in zip(coefficients, sheaf.gens(chart)):
        acc = acc + gen.scale(c.reindex(q + 1, (idx,)))
    return acc


def _with_row(section: JetSection, row: Sequence[Poly]) -> JetSection:
    return tuple(coord + (p,) for coord, p in zip(section, row))


def lift_step(state: LiftState) -> Tuple[LiftState, LiftStep]:
    """One lifting step: candidates, defect, splitting, correction, glue check.

    Rows <= n of both sections and of the crossing are carried over.  Row n + 1
    of each chart is the top jet row of that chart's field: the candidate's,
    or D - (t^n/n!) E when the splitting corrects the chart.  Chart 1's run
    starts from `crossing_starts`, so its top row also gives the crossing's,
    and the two charts must then glue exactly.
    """
    scenario = state.scenario
    sheaf = scenario.sheaf
    atlas = sheaf.atlas
    n = state.order
    window = state.window
    starts = (None, crossing_starts(atlas))

    def top_row(chart, field):
        return _top_jet_row(field, sheaf.morphism.components(chart), n + 1,
                            starts[chart])

    fields = list(state.fields)
    rows = [top_row(chart, fields[chart]) for chart in (0, 1)]
    nu, orientation = defect_cochain(
        sheaf, (_with_row(state.sections[0], rows[0]),
                _with_row(state.crossing, cross_row(atlas, rows[1]))), n + 1,
        window, fields=state.fields)

    lam = None
    corrections: List[Optional[VectorField]] = [None, None]
    if not nu.is_zero():
        split = solve_coboundary(nu)
        if isinstance(split, Obstruction):
            raise LiftObstructedError(
                f"lifting obstructed at order {n} -> {n + 1}: "
                + split.render(scenario.curve.z_name),
                residual=split.residual, cokernel_dim=split.cokernel_dim, order=n)
        lam = split
        scale = Poly.monomial(sheaf.atlas.num_coords + 1,
                              (0,) * sheaf.atlas.num_coords + (n,),
                              Fraction(1, factorial(n)))
        for chart in (0, 1):
            e_field = _extend_to_field(sheaf, chart, lam.coefficients(chart))
            if e_field.is_zero():
                continue
            corrections[chart] = e_field
            fields[chart] = fields[chart] - e_field.scale(scale)
            if time_component_class(fields[chart]) is not TimeClass.CONSTANT_FLOW:
                raise InternalCheckError("correction broke the constant-flow class")
            rows[chart] = top_row(chart, fields[chart])
    sections = (_with_row(state.sections[0], rows[0]),
                _with_row(state.sections[1], rows[1][:atlas.num_coords + 1]))
    crossing = _with_row(state.crossing, cross_row(atlas, rows[1]))
    # glued: equal at every order <= n + 1 on the overlap
    if crossing != sections[0]:
        raise InternalCheckError("corrected candidates still have a nonzero defect")

    grown = _window_growth(scenario)
    new_window = (window[0] - grown, window[1] + grown)
    new_state = LiftState(scenario, n + 1, tuple(fields), sections, new_window,
                          crossing)
    return new_state, LiftStep(n, nu, lam, orientation, tuple(corrections))


def _window_growth(scenario: LiftScenario) -> int:
    spans = [1]
    for chart in (0, 1):
        for g in scenario.sheaf.gens(chart):
            for c in g.components:
                lo_hi = [e for exps in c.terms for e in exps]
                if lo_hi:
                    spans.append(max(abs(e) for e in lo_hi))
    return max(spans)


def initial_state(scenario: LiftScenario) -> LiftState:
    """Order-1 state: witness fields built from sigma (plus declared perturbations)."""
    sheaf = scenario.sheaf
    atlas = sheaf.atlas
    q = atlas.num_coords
    _validate_sigma(scenario)
    fields = []
    for chart in (0, 1):
        space = _extend_to_field(sheaf, chart, scenario.sigma[chart])
        pert = scenario.perturbations[chart]
        if pert is not None:
            pert_field = VectorField(list(pert) + [Poly.zero(q + 1)])
            _validate_perturbation(pert_field)
            if chart == 1:
                pert_field = field_to_chart1(atlas, pert_field)
            space = space + pert_field
        comps = list(space.components)
        comps[q] = Poly.one(q + 1)
        fields.append(VectorField(comps))
    section0 = local_jet_section(fields[0], sheaf.morphism.components(0), 1)
    section1, crossing = transition_jet_section(
        atlas, fields[1], sheaf.morphism.components(1), 1)
    # the first-order data must already glue; anything else is a bad scenario
    for i in range(2):
        for k in range(q + 1):
            if section0[k][i] != crossing[k][i]:
                raise LiftError(
                    f"first-order deformation does not glue at order {i}, "
                    f"coordinate {k}")
    return LiftState(scenario, 1, tuple(fields), (section0, section1),
                     scenario.window, crossing)


def _validate_sigma(scenario: LiftScenario):
    """sigma must be a global section: chart-0 data equals transitioned chart-1 data."""
    sheaf = scenario.sheaf
    s = sheaf.num_gens
    sig0, sig1 = scenario.sigma
    if len(sig0) != s or len(sig1) != s:
        raise DimensionError(f"sigma needs {s} coefficients per chart")
    if restrict_section(sheaf, 1, sig1) != tuple(sig0):
        raise LiftError("sigma is not a global section of the presented sheaf")


def _validate_perturbation(field: VectorField):
    for c in field.components:
        for exps in c.terms:
            if exps[-1] <= 0:
                raise LiftError(
                    "perturbations must vanish at t = 0 (every term needs a "
                    "time factor)")


def lift_to_order(scenario: LiftScenario, order: Optional[int] = None) -> LiftResult:
    """Iterate lift_step from the first-order data up to the requested order."""
    target = scenario.order if order is None else order
    if target < 1:
        raise OrderError("lift order must be >= 1")
    check_limit("lift order", target, "MAX_ORDER", MAX_ORDER)
    state = initial_state(scenario)
    result = LiftResult(scenario, state)
    try:
        while state.order < target:
            state, step = lift_step(state)
            result.steps.append(step)
            result.state = state
    except LiftObstructedError:
        _recompute(state)
        raise
    _recompute(state)
    return result


def _recompute(state: LiftState):
    """Rebuild the carried sections and crossing from scratch; they must agree."""
    sheaf = state.scenario.sheaf
    fresh0 = local_jet_section(state.fields[0], sheaf.morphism.components(0),
                               state.order)
    fresh1, crossed = transition_jet_section(
        sheaf.atlas, state.fields[1], sheaf.morphism.components(1), state.order)
    if (fresh0, fresh1) != state.sections:
        raise InternalCheckError("carried jet sections differ from a recomputation")
    if crossed != state.crossing:
        raise InternalCheckError("carried overlap crossing differs from a recomputation")
