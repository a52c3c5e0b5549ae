"""Order-by-order lifting of infinitesimal deformations along a presented subsheaf.

State at order n holds, per chart, a constant-flow witness field and the jet section
it induces along the curve.  One step computes the order-(n+1) candidates, measures
their overlap defect as an affine jet difference (cross-checked against the iterated
Lie bracket of the witness fields), splits the defect cochain, extends each chart's
correction to a vector field, and replaces D with D - (t^n/n!) E.  After the
replacement the corrected candidates must glue exactly and project onto the previous
section; both facts are recomputed, not assumed.

A candidate section is the flow jet of the witness field along f(Y) at t = 0.  It
comes from the jet engine that `flows.flow_jet` uses, `derivation_powers`, graded
by t alone: after the i-th of n derivations a term of t-degree above n - i can
never reach t^0, so it is dropped, and each row is restricted to the curve by
keeping its t^0 terms.  The engine runs on Python ints: with L the lcm of the
witness field's coefficient denominators, it builds (L*D)^i and divides row i
by L^i once, so the rows it returns are the exact rational D^i.  Crossing the
overlap composes the coordinate series with the target transition through
`algebra.series_compose`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import factorial
from typing import List, Optional, Sequence, Tuple

from .algebra import Poly, monomial_inverse, series_compose
from .cech import (Cochain0, Cochain1, CurveAtlas, MorphismData, Obstruction,
                   PresentedSheaf, TargetAtlas, _solve_section_coordinates,
                   check_window, evaluate_along_curve, negate_exponents,
                   solve_coboundary, window_of)
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
    "defect_cochain",
    "lift_step",
    "lift_to_order",
]

# a jet section along one chart: [coordinate][order] -> Laurent polynomial in the
# chart parameter; coordinates run over the target space coordinates, then time
JetSection = Tuple[Tuple[Poly, ...], ...]


@dataclass(frozen=True)
class LiftScenario:
    """Everything the lifting engine needs, already in engine form."""
    curve: CurveAtlas
    sheaf: PresentedSheaf
    sigma: Tuple[Tuple[Poly, ...], Tuple[Poly, ...]]     # per chart, s coefficients
    perturbations: Tuple[Optional[Tuple[Poly, ...]], ...]  # chart-0 frame, per chart
    window: Tuple[int, int] = (-8, 8)
    order: int = 4

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
    if time_component_class(field) is not TimeClass.CONSTANT_FLOW:
        raise ClassificationError(
            "jet sections require a field with constant flow in time")
    n_coords = field.num_vars
    if len(morphism) != n_coords - 1:
        raise DimensionError("morphism must cover every space coordinate")
    weights = (0,) * (n_coords - 1) + (1,)
    powers = derivation_powers(field.components, order, weights)
    return tuple(tuple(evaluate_along_curve(row[k], morphism) for row in powers)
                 for k in range(n_coords))


def transition_jet_section(atlas: TargetAtlas, section: JetSection,
                           order: int) -> JetSection:
    """Re-express a chart-1 jet section in chart-0 data on the overlap.

    Substitutes w = 1/z in all coefficients, then composes the coordinate series
    with the transition formulas (series inverses are taken where the transition
    has negative exponents, which needs monomial leading coefficients).
    """
    q = atlas.num_coords
    resub = [[negate_exponents(p) for p in coord] for coord in section]
    if atlas.transition is None:
        return tuple(tuple(coord) for coord in resub)
    zero = Poly.zero(1)
    # derivative coordinates -> Taylor coefficients
    taylor = [[p * Fraction(1, factorial(i)) for i, p in enumerate(coord)]
              for coord in resub]
    space = taylor[:q]
    composed = [series_compose(g.terms, space, order, zero, monomial_inverse)
                for g in atlas.transition]
    composed.append(taylor[q])  # time is untouched by the target transition
    return tuple(
        tuple(c * Fraction(factorial(i)) for i, c in enumerate(coord))
        for coord in composed)


def project_section(section: JetSection, order: int) -> JetSection:
    return tuple(coord[:order + 1] for coord in section)


# -- defects --------------------------------------------------------------------

def defect_cochain(sheaf: PresentedSheaf, candidates: Sequence[JetSection],
                   order: int, window: Tuple[int, int],
                   fields: Optional[Sequence[VectorField]] = None):
    """Affine difference of order-(order) candidates on the overlap, as a cochain.

    Candidates must agree below top order on the overlap (checked exactly).  The
    tangential difference is re-expressed in generator coefficients; when the
    witness fields are supplied the result is cross-checked against their iterated
    Lie bracket and the matching orientation is reported.
    """
    atlas = sheaf.atlas
    tau0, tau1 = candidates
    tau1_in_0 = transition_jet_section(atlas, tau1, order)
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

    gens0_curve = sheaf.gens_along_curve(0)
    lo, hi = window
    coeffs = _solve_section_coordinates(gens0_curve, tangent, (lo, hi))
    if coeffs is None:
        raise LiftError(
            "defect is not a generator combination within the window; "
            "the scenario does not deform along the presented sheaf")
    check_window(coeffs, window, "defect cochain")
    nu = Cochain1.from_nu01(sheaf, coeffs, window)

    orientation = "not checked"
    if fields is not None:
        orientation = _bracket_orientation(sheaf, fields, tangent, order)
    return nu, orientation


def _bracket_orientation(sheaf: PresentedSheaf, fields: Sequence[VectorField],
                         tangent: Sequence[Poly], order: int) -> str:
    """Compare the measured defect with the iterated bracket of the witnesses."""
    atlas = sheaf.atlas
    d0 = fields[0]
    d1 = field_to_chart0(atlas, fields[1])
    bracket = iterated_bracket(d0, d1, order)
    f0 = sheaf.morphism.components(0)
    values = [evaluate_along_curve(c, f0) for c in bracket.components[:-1]]
    if all(p.is_zero() for p in tangent) and all(v.is_zero() for v in values):
        return "zero defect"
    if all((a - b).is_zero() for a, b in zip(values, tangent)):
        return "matched nu = +[D0,D1]^(%d) along the curve" % order
    if all((a + b).is_zero() for a, b in zip(values, tangent)):
        return "matched nu = -[D0,D1]^(%d) along the curve" % order
    raise InternalCheckError("defect does not match the iterated bracket either way")


def field_to_chart0(atlas: TargetAtlas, field: VectorField) -> VectorField:
    """Push a chart-1 field (space coords + time) into chart-0 coordinates."""
    if atlas.transition is None:
        return field
    q = atlas.num_coords
    jac = atlas.jacobian()
    comps0 = []
    for k in range(q):
        acc = Poly.zero(q + 1)
        for j in range(q):
            acc = acc + jac[k][j].reindex(q + 1, range(q)) * field.components[j]
        comps0.append(acc)
    comps0.append(field.components[q])
    values = [p.reindex(q + 1, range(q)) for p in atlas.inverse]
    values.append(Poly.variable(q + 1, q))
    return VectorField([c.substitute(values) for c in comps0])


def field_to_chart1(atlas: TargetAtlas, field: VectorField) -> VectorField:
    """Push a chart-0 field (space coords + time) into chart-1 coordinates."""
    if atlas.transition is None:
        return field
    q = atlas.num_coords
    values = [p.reindex(q + 1, range(q)) for p in atlas.transition]
    values.append(Poly.variable(q + 1, q))
    pulled = [c.substitute(values) for c in field.components]
    jac_inv = atlas.jacobian_inverse()
    comps1 = []
    for j in range(q):
        acc = Poly.zero(q + 1)
        for k in range(q):
            acc = acc + jac_inv[j][k].reindex(q + 1, range(q)) * pulled[k]
        comps1.append(acc)
    comps1.append(pulled[q])
    return VectorField(comps1)


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


def lift_step(state: LiftState) -> Tuple[LiftState, LiftStep]:
    """One lifting step: candidates, defect, splitting, correction, re-check."""
    scenario = state.scenario
    sheaf = scenario.sheaf
    n = state.order
    window = state.window

    candidates = [local_jet_section(state.fields[chart],
                                    sheaf.morphism.components(chart), n + 1)
                  for chart in (0, 1)]
    nu, orientation = defect_cochain(sheaf, candidates, n + 1, window,
                                     fields=state.fields)

    if nu.is_zero():
        lam = None
        corrections: Tuple[Optional[VectorField], ...] = (None, None)
        new_fields = state.fields
        corrected = candidates
    else:
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
        new_fields_list = []
        corrections_list: List[Optional[VectorField]] = []
        for chart in (0, 1):
            e_field = _extend_to_field(sheaf, chart, lam.coefficients(chart))
            if e_field.is_zero():
                corrections_list.append(None)
                new_fields_list.append(state.fields[chart])
            else:
                corrections_list.append(e_field)
                new_fields_list.append(state.fields[chart] - e_field.scale(scale))
        new_fields = tuple(new_fields_list)
        corrections = tuple(corrections_list)
        for f in new_fields:
            if time_component_class(f) is not TimeClass.CONSTANT_FLOW:
                raise InternalCheckError("correction broke the constant-flow class")
        corrected = [local_jet_section(new_fields[chart],
                                       sheaf.morphism.components(chart), n + 1)
                     for chart in (0, 1)]
        check, _ = defect_cochain(sheaf, corrected, n + 1, window)
        if not check.is_zero():
            raise InternalCheckError("corrected candidates still have a nonzero defect")

    for chart in (0, 1):
        if project_section(corrected[chart], n) != state.sections[chart]:
            raise InternalCheckError(
                "lifted section does not project onto its predecessor")

    grown = _window_growth(scenario)
    new_window = (window[0] - grown, window[1] + grown)
    new_state = LiftState(scenario, n + 1, tuple(new_fields),
                          tuple(corrected), new_window)
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
    sections = [local_jet_section(fields[chart], sheaf.morphism.components(chart), 1)
                for chart in (0, 1)]
    # the first-order data must already glue; anything else is a bad scenario
    tau1_in_0 = transition_jet_section(atlas, sections[1], 1)
    for i in range(2):
        for k in range(q + 1):
            if sections[0][k][i] != tau1_in_0[k][i]:
                raise LiftError(
                    f"first-order deformation does not glue at order {i}, "
                    f"coordinate {k}")
    return LiftState(scenario, 1, tuple(fields), tuple(tuple(s) for s in sections),
                     scenario.window)


def _validate_sigma(scenario: LiftScenario):
    """sigma must be a global section: chart-0 data equals transitioned chart-1 data."""
    sheaf = scenario.sheaf
    s = sheaf.num_gens
    sig0, sig1 = scenario.sigma
    if len(sig0) != s or len(sig1) != s:
        raise DimensionError(f"sigma needs {s} coefficients per chart")
    window = window_of(list(sig0) + list(sig1))
    grow = _window_growth(scenario) + max(abs(window[0]), abs(window[1])) + 2
    wide = (-grow - 8, grow + 8)
    from .cech import restrict_section
    r1 = restrict_section(sheaf, 1, sig1, wide)
    for a, b in zip(sig0, r1):
        if a != b:
            raise LiftError("sigma is not a global section of the presented sheaf")


def _validate_perturbation(field: VectorField):
    for c in field.components:
        for exps in c.terms:
            if exps[-1] == 0:
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
    while state.order < target:
        state, step = lift_step(state)
        result.steps.append(step)
        result.state = state
    return result
