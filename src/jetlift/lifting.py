"""Order-by-order lifting of infinitesimal deformations along a presented subsheaf.

State at order n holds, per chart, a constant-flow witness field, its jet tower
at level n and the jet section it induces along the curve; they glue, so chart
1's section read in chart 0 (the crossing) is chart 0's.  Rows <= n of both are
fixed from then on, so one step computes only row n + 1 of each.  It measures
the overlap defect as the difference of the two new rows, written in the
generators (cross-checked against the iterated Lie bracket of the witness
fields, built graded by t alone so that only the terms that reach t^0 on the
curve are formed), splits the defect cochain, extends each chart's correction
to a vector field, and replaces D with D - (t^n/n!) E.  Every new row,
corrected or not, is read off the tower of the chart's current field, and on
every step the two charts must then glue exactly.  A field changes only by a
correction, and its carried tower takes the corrected field only if the
correction changes no term of t-degree < n: exactly the corrections that keep
every carried row, since row 1 of x_k is component k.  Any other correction
raises `InternalCheckError` where it is made.

A jet section is the flow jet of the witness field along f(Y) at t = 0.  It
comes from the jet engine that `flows.flow_jet` uses, `vectorfields.JetTower`,
graded by t alone: the t-degree-d part of row i is held at level i + d, and a
step extends the tower by one level, n + 1, computing only the new products.
The tower runs on Python ints, its own product loop over exponents packed into
integer keys: with L the lcm of the witness field's coefficient denominators,
it holds (L*D)^i.  Row i is restricted to the curve by reading its t^0 slice,
which is exact, and `JetTower.along_curve` does that on ints, straight from
the packed keys: each key's space exponents go through power tables of the
chart's morphism components, and each term of the row along the curve is
divided once, by L^i and the morphism's denominators.  The bracket
cross-check runs the tuple-key term kernels and restricts its bracket through
`cech.evaluate_along_curve` (`Poly.substitute`), so it checks the packing and
the packed restriction too.  Chart 1's tower
also yields the crossing: it starts from chart 1's coordinates and from the
inverses x_j^-1 that chart 0 reads (`cech.crossing_starts`), so each of its
rows is one row of chart 1's section and, read by `cech.cross_row`, one row of
the crossing; nothing is inverted.  Every reading of the target overlap
(pushing fields, which starts chart 0 reads, c * row) comes from `cech`, next
to the atlas it reads; this module runs the towers and the loop.  The state
also carries chart 1's field pushed into chart 0 for the bracket, pushed again
only when a correction changes that field.  States, steps and results are
immutable records: `lift_to_order` collects the steps and builds its
`LiftResult` once, from the final state.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .algebra import Poly
from .cech import (Cochain0, Cochain1, CurveAtlas, JetSection, MorphismData,
                   Obstruction, PresentedSheaf, TargetAtlas, cross_row,
                   crossing_starts, evaluate_along_curve, field_to_chart0,
                   field_to_chart1, restrict_section, solve_coboundary,
                   solve_section_coordinates, window_of)
from .errors import (ClassificationError, DimensionError, InternalCheckError,
                     LiftError, LiftObstructedError, OrderError)
from .limits import MAX_ORDER, check_limit
from .vectorfields import (JetTower, TimeClass, VectorField, extend_constant_flow,
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

class LiftScenario(NamedTuple):
    """Everything the lifting engine needs, already in engine form."""
    curve: CurveAtlas
    sheaf: PresentedSheaf
    sigma: Tuple[Tuple[Poly, ...], Tuple[Poly, ...]]     # per chart, s coefficients
    perturbations: Tuple[Optional[Tuple[Poly, ...]], ...]  # chart-0 frame, per chart
    order: int

    @property
    def atlas(self) -> TargetAtlas:
        return self.sheaf.atlas

    @property
    def morphism(self) -> MorphismData:
        return self.sheaf.morphism


class LiftState(NamedTuple):
    """Order-n lift: per chart the witness field, its jet tower at level n and
    its jet section; chart 1's tower starts from `cech.crossing_starts`, and
    `pushed` is chart 1's field read in chart 0.  `window` is the exponent range
    of the last defect cochain's own coefficients, (0, 0) before the first
    step; no step reads it."""
    scenario: LiftScenario
    order: int
    fields: Tuple[VectorField, VectorField]
    sections: Tuple[JetSection, JetSection]
    window: Tuple[int, int]
    towers: Tuple[JetTower, JetTower]
    pushed: VectorField


class LiftStep(NamedTuple):
    order_from: int
    nu: Cochain1
    lam: Optional[Cochain0]
    orientation: str
    corrections: Tuple[Optional[VectorField], Optional[VectorField]]


class LiftResult(NamedTuple):
    """A finished lift: the final state and every step taken."""
    scenario: LiftScenario
    state: LiftState
    steps: List[LiftStep]

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
    return " + ".join(f"({p.render([param])}) * g{k}" for k, p in enumerate(coeffs))


# -- jet sections --------------------------------------------------------------

def local_jet_section(field: VectorField, morphism: Sequence[Poly],
                      order: int) -> JetSection:
    """Symbolic flow jet along the curve: entry [k][i] = (D^i coord_k)(f(param), 0).

    The field must have constant flow in time (time component identically 1); the
    morphism gives the space coordinates as Laurent polynomials in the parameter.
    Row i is the t^0 slice of row i of the field's `JetTower` graded by t alone.
    """
    tower = _chart_tower(field, morphism).extended(order)
    return tuple(zip(*_section_rows(tower, morphism)))


def transition_jet_section(atlas: TargetAtlas, field: VectorField,
                           morphism: Sequence[Poly],
                           order: int) -> Tuple[JetSection, JetSection]:
    """Chart 1's jet section and its crossing into chart 0, from one tower.

    `field` and `morphism` are chart 1's.  The tower starts from
    `cech.crossing_starts`, so entry [k][i] of the section is that of
    `local_jet_section`, and row i of the crossing is `cech.cross_row` of
    the tower's row i.
    """
    tower = _chart_tower(field, morphism, atlas).extended(order)
    return _split_crossing(atlas, _section_rows(tower, morphism))


def _chart_tower(field: VectorField, morphism: Sequence[Poly],
                 atlas: Optional[TargetAtlas] = None) -> JetTower:
    """The empty tower of the coordinates, or with `atlas` of `cech.crossing_starts`."""
    if time_component_class(field) is not TimeClass.CONSTANT_FLOW:
        raise ClassificationError(
            "jet sections require a field with constant flow in time")
    n_coords = field.num_vars
    if len(morphism) != n_coords - 1:
        raise DimensionError("morphism must cover every space coordinate")
    weights = (0,) * (n_coords - 1) + (1,)
    starts = None if atlas is None else crossing_starts(atlas)
    return JetTower(field.components, weights, starts)


def _section_rows(tower: JetTower, morphism: Sequence[Poly]) -> List[Tuple[Poly, ...]]:
    """Every row of the tower along the curve: its t^0 slices."""
    return [tower.along_curve(i, morphism) for i in range(tower.level + 1)]


def _split_crossing(atlas: TargetAtlas, rows: Sequence[Sequence[Poly]]
                    ) -> Tuple[JetSection, JetSection]:
    """Chart 1's section and the crossing, from rows over `crossing_starts`."""
    q = atlas.num_coords
    return (tuple(zip(*(row[:q + 1] for row in rows))),
            tuple(zip(*(cross_row(atlas, row) for row in rows))))


# -- defects --------------------------------------------------------------------

def defect_cochain(sheaf: PresentedSheaf, row: Sequence[Poly],
                   crossing: Sequence[Poly], order: int, d0: VectorField,
                   d1: VectorField):
    """The overlap defect at `order`, tau0 - tau1, as a 1-cochain.

    `row` is chart 0's row `order` along the curve and `crossing` chart 1's,
    read in chart 0 by `cech.cross_row`; the rows below agree.  The difference
    is written in the generators and cross-checked against the iterated Lie
    bracket of the witness fields: `d0` is chart 0's, `d1` chart 1's read in
    chart 0.  The cochain is sized by its own exponents alone, so no declared
    bound on the input decides a verdict.
    """
    diff = [a - b for a, b in zip(row, crossing)]
    if not diff[-1].is_zero():
        raise LiftError("defect has a nonzero time component")
    tangent = diff[:-1]

    coeffs = solve_section_coordinates(sheaf.gens_along_curve(), tangent)
    if coeffs is None:
        raise LiftError(
            "defect is not a generator combination; "
            "the scenario does not deform along the presented sheaf")
    nu = Cochain1(sheaf, coeffs, window_of(coeffs))
    return nu, _bracket_orientation(sheaf, d0, d1, tangent, order)


def _bracket_orientation(sheaf: PresentedSheaf, d0: VectorField, d1: VectorField,
                         tangent: Sequence[Poly], order: int) -> str:
    """The flows glue below `order`, so the defect must be -[D0,D1]^(order).

    The curve lies at t = 0, so only the t^0 terms of the bracket are read: it
    is built graded by t alone, and a term that cannot reach t^0 is never
    formed (see `iterated_bracket`).  `d1` is chart 1's field read in chart 0.
    """
    bracket = iterated_bracket(d0, d1, order, (0,) * sheaf.atlas.num_coords + (1,))
    f0 = sheaf.morphism.components(0)
    values = [evaluate_along_curve(c, f0) for c in bracket.components[:-1]]
    if not all((a + b).is_zero() for a, b in zip(values, tangent)):
        raise InternalCheckError(
            "defect does not match -[D0,D1]^(%d) along the curve" % order)
    if all(p.is_zero() for p in tangent):
        return "zero defect"
    return "matched nu = -[D0,D1]^(%d) along the curve" % order


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
    """One lifting step: new rows, defect, splitting, correction, glue check.

    Rows <= n of both sections are carried over; below n + 1 the crossing is
    chart 0's section.  Each chart's tower is extended by one level, to
    n + 1, and row n + 1 is read off its t^0 slice: the field's own, or,
    when the splitting corrects the chart, that of the carried tower swapped
    to D - (t^n/n!) E and extended to n + 1.  The swap keeps levels <= n
    only if the correction changes no term of t-degree < n, so a correction
    that would move a carried row raises `InternalCheckError` where it is
    made.  Chart 1's tower starts from `crossing_starts`, so its new row
    also gives the crossing's, which must then equal chart 0's row.
    """
    scenario = state.scenario
    sheaf = scenario.sheaf
    atlas = sheaf.atlas
    n = state.order

    fields = list(state.fields)
    morphisms = [sheaf.morphism.components(chart) for chart in (0, 1)]
    towers = [tower.extended(n + 1) for tower in state.towers]
    rows = [towers[chart].along_curve(n + 1, morphisms[chart]) for chart in (0, 1)]
    crossing = cross_row(atlas, rows[1])
    nu, orientation = defect_cochain(sheaf, rows[0], crossing, n + 1,
                                     state.fields[0], state.pushed)

    lam = None
    corrections: List[Optional[VectorField]] = [None, None]
    pushed = state.pushed
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
            towers[chart] = state.towers[chart].swapped(
                fields[chart].components).extended(n + 1)
            rows[chart] = towers[chart].along_curve(n + 1, morphisms[chart])
            if chart:
                crossing = cross_row(atlas, rows[1])
                pushed = field_to_chart0(atlas, fields[1])
    # glued: rows <= n already agree across the overlap, so row n + 1 must too
    if crossing != rows[0]:
        raise InternalCheckError("corrected candidates still have a nonzero defect")
    sections = (_with_row(state.sections[0], rows[0]),
                _with_row(state.sections[1], rows[1][:atlas.num_coords + 1]))
    new_state = LiftState(scenario, n + 1, tuple(fields), sections, nu.window,
                          tuple(towers), pushed)
    return new_state, LiftStep(n, nu, lam, orientation, tuple(corrections))


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
        fields.append(extend_constant_flow(space))
    morphisms = [sheaf.morphism.components(chart) for chart in (0, 1)]
    towers = (_chart_tower(fields[0], morphisms[0]).extended(1),
              _chart_tower(fields[1], morphisms[1], atlas).extended(1))
    section0 = tuple(zip(*_section_rows(towers[0], morphisms[0])))
    section1, crossing = _split_crossing(atlas, _section_rows(towers[1], morphisms[1]))
    # the first-order data must already glue; anything else is a bad scenario
    for i in range(2):
        for k in range(q + 1):
            if section0[k][i] != crossing[k][i]:
                raise LiftError(
                    f"first-order deformation does not glue at order {i}, "
                    f"coordinate {k}")
    return LiftState(scenario, 1, tuple(fields), (section0, section1),
                     (0, 0), towers, field_to_chart0(atlas, fields[1]))


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
    """Iterate lift_step, which checks the rows it carries, to the requested order."""
    target = scenario.order if order is None else order
    if target < 1:
        raise OrderError("lift order must be >= 1")
    check_limit("lift order", target, "MAX_ORDER", MAX_ORDER)
    state = initial_state(scenario)
    steps = []
    while state.order < target:
        state, step = lift_step(state)
        steps.append(step)
    return LiftResult(scenario, state, steps)
