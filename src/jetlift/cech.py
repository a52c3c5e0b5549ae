"""Two-chart curve atlases, presented sheaves, and Čech cochains over Laurent windows.

The compact curve is fixed to the two-chart shape with parameters z and w glued by
w = 1/z; with no triple overlaps a 1-cochain is its one section nu_01, and first
cohomology Q[z, 1/z]^s / (Q[z]^s + T Q[1/z]^s) depends on T alone: a window only
bounds input: `solve_coboundary` sizes its system from T and nu_01, lambda by its support.
Sections of the presented sheaf are generator-coefficient vectors; crossing the
overlap substitutes the parameter and multiplies by a transition matrix T.  Every
target is two charts glued by a monomial map (one chart: the identity), and every
crossing of its overlap is read here, on the atlas's one reading of each
component as c * x_j^(+-1): a field is pushed by one Jacobian entry per row.  A
jet section crosses with nothing inverted: chart 1's jet run also starts from
x_j^-1 for each coordinate that chart 0 reads with exponent -1
(`crossing_starts`), and chart-0 coordinate k is c times the row of x_j^(+-1),
read at w = 1/z (`cross_row`); `lifting` runs the engine.  T writes the pushed
chart-1 generators, read along the curve, in the chart-0 generators; generator
coordinates need no window (`solve_section_coordinates`), only cochains do.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .algebra import Frozen, FrozenValue, Poly, poly_det
from .errors import (DimensionError, InternalCheckError, LiftError, TransitionError,
                     WindowOverflowError)
from .limits import MAX_WINDOW_SPAN, check_limit
from .vectorfields import VectorField

__all__ = [
    "CurveAtlas",
    "TargetAtlas",
    "MorphismData",
    "PresentedSheaf",
    "Cochain0",
    "Cochain1",
    "Obstruction",
    "field_to_chart0",
    "field_to_chart1",
    "crossing_starts",
    "cross_row",
    "restrict_section",
    "solve_section_coordinates",
    "coboundary",
    "solve_coboundary",
]

Window = Tuple[int, int]


# -- univariate Laurent helpers ----------------------------------------------

def uni(terms) -> Poly:
    """Univariate Laurent polynomial from {exponent: coefficient}."""
    return Poly(1, {(e,): c for e, c in terms.items()}, laurent=True)


def uni_x(e: int = 1) -> Poly:
    return Poly(1, {(e,): 1}, laurent=True)


def negate_exponents(p: Poly) -> Poly:
    """p(1/z) for univariate Laurent p."""
    if p.num_vars != 1:
        raise DimensionError("parameter substitution needs a univariate polynomial")
    return Poly._raw(1, {(-e[0],): c for e, c in p.terms.items()})


def window_of(polys: Sequence[Poly]) -> Window:
    lo, hi = 0, 0
    for p in polys:
        for (e,) in p.terms:
            lo = min(lo, e)
            hi = max(hi, e)
    return lo, hi


def check_window_span(window: Window, what: str):
    lo, hi = window
    check_limit(f"span of the {what} window [{lo}, {hi}]", hi - lo,
                "MAX_WINDOW_SPAN", MAX_WINDOW_SPAN)


def check_window(polys: Sequence[Poly], window: Window, what: str):
    """The polys' own exponents lie in `window`; unlike `window_of`, this does
    not count exponent 0, so a zero cochain fits every window."""
    check_window_span(window, what)
    exps = [e for p in polys for (e,) in p.terms]
    if not exps:
        return
    need = min(min(exps), window[0]), max(max(exps), window[1])
    if need != window:
        raise WindowOverflowError(
            f"{what} needs window [{need[0]}, {need[1]}], "
            f"declared [{window[0]}, {window[1]}]", required_window=need)


# -- atlases ------------------------------------------------------------------

class CurveAtlas(NamedTuple):
    """Two charts with parameters z and w, glued by w = 1/z away from the origins."""
    z_name: str = "z"
    w_name: str = "w"

    def param_name(self, chart: int) -> str:
        return (self.z_name, self.w_name)[chart]


class Monomial(NamedTuple):
    """A coordinate of one chart as coefficient * x_source^exponent (exponent +-1)."""
    source: int
    coefficient: Fraction
    exponent: int


class TargetAtlas(Frozen):
    """Two coordinate charts for the target, glued by a monomial transition.

    `transition[k]` gives chart-0 coordinate k as c * x_j^(+-1) in the chart-1
    coordinates (e.g. x -> 1/x; x -> x for a one-chart target), each j used once;
    `inverse` gives the chart-1 coordinates in the chart-0 ones.  `reading[chart][k]`
    is coordinate k of `chart` read once as a `Monomial` of the other chart's.
    """

    __slots__ = ("names", "transition", "inverse", "reading")

    def __init__(self, names: Sequence[str], transition: Sequence[Poly]):
        names = tuple(names)
        q = len(names)
        if q < 1:
            raise ValueError("at least one target coordinate required")
        transition = tuple(transition)
        if len(transition) != q:
            raise DimensionError("one transition formula per coordinate required")
        inverse, reading = _read_monomial_map(transition)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "inverse", inverse)
        object.__setattr__(self, "reading", reading)

    def __repr__(self):
        return f"TargetAtlas(names={self.names!r}, transition={self.transition!r})"

    @property
    def num_coords(self) -> int:
        return len(self.names)


def _read_monomial_map(transition: Sequence[Poly]):
    """Read x0 = G(x1), each G_k = c * x1_j^(+-1) with distinct j: G^-1, readings."""
    q = len(transition)
    inverse: List[Optional[Poly]] = [None] * q
    forward: List[Monomial] = []
    backward: List[Optional[Monomial]] = [None] * q
    for k, g in enumerate(transition):
        mono = g.as_monomial()
        if mono is None:
            raise LiftError(f"transition component {g} is not a Laurent monomial")
        exps, c = mono
        support = [j for j, e in enumerate(exps) if e]
        if len(support) != 1 or exps[support[0]] not in (1, -1):
            raise LiftError(
                f"transition component {g} must be c*x_j or c*x_j^-1")
        j = support[0]
        e = exps[j]
        if inverse[j] is not None:
            raise LiftError("transition reuses a coordinate; not invertible")
        # x0_k = c * x1_j^e  =>  x1_j = (x0_k / c)^e  (e = +-1)
        c_inv = Fraction(1) / c if e == 1 else c
        exp_vec = [0] * q
        exp_vec[k] = e
        inverse[j] = Poly(q, {tuple(exp_vec): c_inv}, laurent=True)
        forward.append(Monomial(j, c, e))
        backward[j] = Monomial(k, c_inv, e)
    # q components on q distinct coordinates: every inverse entry is set
    return tuple(inverse), (tuple(forward), tuple(backward))


class MorphismData(NamedTuple):
    """Per chart, the map into target coordinates as Laurent polynomials in the parameter."""
    chart0: Tuple[Poly, ...]
    chart1: Tuple[Poly, ...]

    def components(self, chart: int) -> Tuple[Poly, ...]:
        return (self.chart0, self.chart1)[chart]

    def verify(self, atlas: TargetAtlas):
        """Chart 1 pushed through the transition, read at w = 1/z, must be chart 0;
        `atlas.inverse` is the transition's exact inverse, so chart 0 pulled back
        is then chart 1."""
        if len(self.chart0) != atlas.num_coords or len(self.chart1) != atlas.num_coords:
            raise DimensionError("morphism components do not match target coordinates")
        try:
            pushed = [g.substitute(self.chart1) for g in atlas.transition]
        except ValueError as exc:
            raise LiftError(f"cannot push the morphism through the transition: {exc}")
        if tuple(negate_exponents(p) for p in pushed) != self.chart0:
            raise LiftError("morphism charts disagree on the overlap (chart1 -> chart0)")


# -- crossing the target overlap ---------------------------------------------------

# a jet section along one chart: [coordinate][order] -> Laurent polynomial in the
# chart parameter; coordinates run over the target space coordinates, then time
JetSection = Tuple[Tuple[Poly, ...], ...]


def field_to_chart0(atlas: TargetAtlas, field: VectorField) -> VectorField:
    """Push a chart-1 field (space coords + time) into chart-0 coordinates."""
    return _push_field(atlas, field, 0)


def field_to_chart1(atlas: TargetAtlas, field: VectorField) -> VectorField:
    """Push a chart-0 field (space coords + time) into chart-1 coordinates."""
    return _push_field(atlas, field, 1)


def _push_field(atlas: TargetAtlas, field: VectorField, chart: int) -> VectorField:
    """Push a field into `chart` along x' = forward(x), whose inverse is back.

    forward_k = c * x_j^(+-1), so component k is d(forward_k)/dx_j * F_j, read
    at x = back(x'); time is untouched.
    """
    q = atlas.num_coords
    forward, back = atlas.transition, atlas.inverse
    if chart == 1:
        forward, back = back, forward
    comps = [g.partial(m.source).reindex(q + 1, range(q))
             * field.components[m.source]
             for g, m in zip(forward, atlas.reading[chart])]
    comps.append(field.components[q])
    values = [p.reindex(q + 1, range(q)) for p in back]
    values.append(Poly.variable(q + 1, q))
    return VectorField([c.substitute(values) for c in comps])


def crossing_starts(atlas: TargetAtlas) -> Tuple[Tuple[int, ...], ...]:
    """Start monomials of the chart-1 jet run that also yields the crossing.

    Chart 1's q space coordinates and time, then x_j^-1 for every coordinate j
    that chart 0 reads with exponent -1, in the order of `atlas.reading[0]`.
    Every start is a chart-1 coordinate or its inverse, of t-weight 0 or 1.
    """
    q = atlas.num_coords

    def unit(j: int, e: int = 1) -> Tuple[int, ...]:
        return tuple(e if i == j else 0 for i in range(q + 1))

    return (tuple(unit(j) for j in range(q + 1))
            + tuple(unit(m.source, -1) for m in atlas.reading[0] if m.exponent < 0))


def cross_row(atlas: TargetAtlas, row: Sequence[Poly]) -> Tuple[Poly, ...]:
    """Chart 0's reading of one chart-1 jet row taken over `crossing_starts`.

    `row[s]` is the row of start s along the curve in w.  Chart-0 coordinate k
    reads c * x_j^(+-1), so its row is c times the row of x_j or of x_j^-1;
    time is untouched, and every entry is read at w = 1/z.
    """
    q = atlas.num_coords
    inverted = iter(row[q + 1:])
    read = [m.coefficient * (next(inverted) if m.exponent < 0 else row[m.source])
            for m in atlas.reading[0]]
    read.append(row[q])
    return tuple(negate_exponents(p) for p in read)


# -- presented sheaves ---------------------------------------------------------

def evaluate_along_curve(p: Poly, morphism: Sequence[Poly]) -> Poly:
    """Restrict a function of (space coords, t) to the curve: space -> f(param), t -> 0.

    Only the t^0 terms survive t -> 0, so the others are dropped before the
    morphism is substituted into the space coordinates.  A negative power of a
    coordinate restricts only along a monomial component; any other raises
    `LiftError`.
    """
    q = len(morphism)
    if q + 1 != p.num_vars:
        raise DimensionError("function does not live on space coordinates plus time")
    space = Poly._raw(q, {e[:q]: c for e, c in p.terms.items() if not e[q]})
    try:
        return space.substitute(morphism)
    except ValueError:
        raise LiftError("cannot restrict a negative power of a coordinate along a "
                        "curve component that is not a monomial") from None


class PresentedSheaf(Frozen):
    """Per-chart generator lists with a Laurent transition matrix for coefficients.

    A section over chart alpha is an s-vector of Laurent polynomials in that chart's
    parameter (coefficients of the generators).  On the overlap, chart-1 coefficient
    vectors are read in the chart-0 frame as T(z) . c(1/z); T is solved from the
    chart-1 generators pushed by `field_to_chart0` and read along the curve.
    T must be a unit over Q[z, 1/z], det T = c*z^k with c != 0 (`det`); any other
    T raises TransitionError.  `from_charts` stores the chart-0 generators read
    along the curve once (`gens_along_curve`); a formal presentation has none.
    """

    __slots__ = ("atlas", "morphism", "gens0", "gens1", "transition", "det", "_along0")

    def __init__(self, atlas: Optional[TargetAtlas], morphism: Optional[MorphismData],
                 gens0: Sequence[VectorField], gens1: Sequence[VectorField],
                 transition: Sequence[Sequence[Poly]]):
        gens0, gens1 = tuple(gens0), tuple(gens1)
        if len(gens0) != len(gens1):
            raise DimensionError("both charts need the same number of generators")
        transition = tuple(tuple(row) for row in transition)
        s = len(gens0)
        if len(transition) != s or any(len(row) != s for row in transition):
            raise DimensionError("transition matrix must be s x s")
        det = poly_det(transition) if s else Poly.one(1)
        if det.as_monomial() is None:
            raise TransitionError(
                f"transition determinant {det.render(['z'] * det.num_vars)} is not "
                "c*z^k with c != 0: not a unit over Q[z, 1/z]")
        object.__setattr__(self, "atlas", atlas)
        object.__setattr__(self, "morphism", morphism)
        object.__setattr__(self, "gens0", gens0)
        object.__setattr__(self, "gens1", gens1)
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "_along0", None)

    def __repr__(self):
        return (f"PresentedSheaf(atlas={self.atlas!r}, morphism={self.morphism!r}, "
                f"gens0={self.gens0!r}, gens1={self.gens1!r}, "
                f"transition={self.transition!r})")

    @property
    def num_gens(self) -> int:
        return len(self.gens0)

    def gens(self, chart: int) -> Tuple[VectorField, ...]:
        return (self.gens0, self.gens1)[chart]

    @classmethod
    def line_bundle(cls, transition: Poly) -> "PresentedSheaf":
        """Formal one-generator presentation from a bare transition factor in z."""
        return cls(None, None,
                   [VectorField([Poly.one(2), Poly.zero(2)])],
                   [VectorField([Poly.one(2), Poly.zero(2)])],
                   [[transition]])

    @classmethod
    def from_charts(cls, atlas: TargetAtlas, morphism: MorphismData,
                    gens0: Sequence[VectorField],
                    gens1: Sequence[VectorField]) -> "PresentedSheaf":
        """Compute the coefficient transition from the atlas and verify consistency."""
        morphism.verify(atlas)
        q = atlas.num_coords
        for g in tuple(gens0) + tuple(gens1):
            if g.num_vars != q + 1:
                raise DimensionError(
                    "generators must live on space coordinates plus time")
            if not g.components[q].is_zero():
                raise LiftError("generators must have zero time component")
        f0 = morphism.components(0)
        base = tuple(_along_curve(g, f0) for g in gens0)
        sheaf = cls(atlas, morphism, gens0, gens1,
                    _coefficient_transition(atlas, morphism, base, gens1))
        object.__setattr__(sheaf, "_along0", base)
        return sheaf

    def gens_along_curve(self) -> Tuple[Tuple[Poly, ...], ...]:
        """Values of the chart-0 generators along the curve, in chart-0 coordinates.

        Returns, per generator, the q space components as Laurent polynomials in
        z, computed once by `from_charts`.
        """
        if self._along0 is None:
            raise LiftError("formal presentation carries no geometric data")
        return self._along0


def _along_curve(field: VectorField, morphism: Sequence[Poly]) -> Tuple[Poly, ...]:
    """Space components of a field (space coords + time) restricted to the curve."""
    return tuple(evaluate_along_curve(c, morphism) for c in field.components[:-1])


def _coefficient_transition(atlas: TargetAtlas, morphism: MorphismData,
                            base: Sequence[Sequence[Poly]],
                            gens1: Sequence[VectorField]) -> List[List[Poly]]:
    """Solve gen1_j (pushed to the chart-0 frame along the curve) = sum_k T[k][j] gen0_k,
    with `base` the chart-0 generators along the curve.

    `MorphismData.verify` has checked that f1(1/z) pushed through the
    transition is f0(z), so a pushed generator read along f0 is its chart-1
    value along f1 at w = 1/z.
    """
    f0 = morphism.components(0)
    pushed = [_along_curve(field_to_chart0(atlas, g), f0) for g in gens1]

    columns = []
    for vec in pushed:
        column = solve_section_coordinates(base, vec)
        if column is None:
            raise LiftError(
                "generator transition rule inconsistent with the target Jacobian")
        columns.append(column)
    return [list(row) for row in zip(*columns)]


def solve_section_coordinates(gen_values: Sequence[Sequence[Poly]],
                              target: Sequence[Poly]) -> Optional[Tuple[Poly, ...]]:
    """Solve sum_k c_k(z) * gen_values[k] = target for Laurent c_k.

    Cramer's rule on an s x s minor bounds the exponents of a solution by those
    of the generator values, [lo_g, hi_g], and of the target, [lo_t, hi_t] (0
    included, as in `window_of`), so one is found whenever one exists; it is
    unique when the generators have full rank along the curve.
    """
    s = len(gen_values)
    lo_g, hi_g = window_of([p for vec in gen_values for p in vec])
    lo_t, hi_t = window_of(target)
    lo = (s - 1) * lo_g + lo_t - s * hi_g
    hi = (s - 1) * hi_g + hi_t - s * lo_g
    check_window_span((lo, hi), "section coordinate")
    coeffs = linalg.solve_combination(
        [[p.terms for p in vec] for vec in gen_values], [p.terms for p in target],
        [(e,) for e in range(lo, hi + 1)])
    if coeffs is None:
        return None
    return tuple(Poly._raw(1, t) for t in coeffs)


# -- cochains ------------------------------------------------------------------

class Cochain0(FrozenValue):
    """Per chart, an s-vector of generator coefficients in the chart's own parameter."""

    __slots__ = ("sheaf", "chart0", "chart1", "window")

    def __init__(self, sheaf: PresentedSheaf, chart0: Sequence[Poly],
                 chart1: Sequence[Poly], window: Window):
        chart0, chart1 = tuple(chart0), tuple(chart1)
        s = sheaf.num_gens
        if len(chart0) != s or len(chart1) != s:
            raise DimensionError(f"cochain needs {s} coefficients per chart")
        check_window(chart0 + chart1, window, "0-cochain")
        object.__setattr__(self, "sheaf", sheaf)
        object.__setattr__(self, "chart0", chart0)
        object.__setattr__(self, "chart1", chart1)
        object.__setattr__(self, "window", window)

    def _key(self):
        return (self.chart0, self.chart1)

    def __repr__(self):
        return (f"Cochain0(chart0={self.chart0!r}, chart1={self.chart1!r}, "
                f"window={self.window!r})")

    def coefficients(self, chart: int) -> Tuple[Poly, ...]:
        return (self.chart0, self.chart1)[chart]

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.chart0 + self.chart1)


class Cochain1(FrozenValue):
    """The overlap section nu_(0,1) in the chart-0 frame; nu_(1,0) = -nu_(0,1)."""

    __slots__ = ("sheaf", "nu01", "window")

    def __init__(self, sheaf: PresentedSheaf, nu01: Sequence[Poly], window: Window):
        nu01 = tuple(nu01)
        s = sheaf.num_gens
        if len(nu01) != s:
            raise DimensionError(f"cochain needs {s} coefficients per overlap")
        check_window(nu01, window, "1-cochain")
        object.__setattr__(self, "sheaf", sheaf)
        object.__setattr__(self, "nu01", nu01)
        object.__setattr__(self, "window", window)

    def _key(self):
        return self.nu01

    def __repr__(self):
        return f"Cochain1(nu01={self.nu01!r}, window={self.window!r})"

    # an alias of the constructor, kept while perfbench/workloads.py calls it
    @classmethod
    def from_nu01(cls, sheaf: PresentedSheaf, nu01: Sequence[Poly],
                  window: Window) -> "Cochain1":
        return cls(sheaf, nu01, window)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.nu01)


def restrict_section(sheaf: PresentedSheaf, chart: int,
                     coefficients: Sequence[Poly]) -> Tuple[Poly, ...]:
    """Restrict a chart section to the overlap, expressed in the chart-0 frame."""
    coefficients = tuple(coefficients)
    if len(coefficients) != sheaf.num_gens:
        raise DimensionError(f"expected {sheaf.num_gens} generator coefficients")
    if chart == 0:
        out = coefficients
    elif chart == 1:
        substituted = [negate_exponents(p) for p in coefficients]
        out = tuple(
            sum((sheaf.transition[k][j] * substituted[j]
                 for j in range(sheaf.num_gens)), Poly.zero(1))
            for k in range(sheaf.num_gens))
    else:
        raise ValueError("chart must be 0 or 1")
    return out


def coboundary(cochain: Cochain0) -> Cochain1:
    """(delta lambda)_(0,1) = restrict(lambda_0) - restrict(lambda_1).

    lambda_0 lies in the window, so a restriction of lambda_1 that leaves it
    leaves nu outside it too, and the 1-cochain's own check reports it.
    """
    r0 = restrict_section(cochain.sheaf, 0, cochain.chart0)
    r1 = restrict_section(cochain.sheaf, 1, cochain.chart1)
    nu01 = tuple(a - b for a, b in zip(r0, r1))
    return Cochain1(cochain.sheaf, nu01, cochain.window)


class Obstruction(NamedTuple):
    """Nonzero class of a 1-cochain modulo coboundaries; cokernel_dim is h^1."""
    residual: Tuple[Poly, ...]
    cokernel_dim: int

    def render(self, param: str = "z") -> str:
        body = ", ".join(p.render([param]) for p in self.residual)
        return f"OBSTRUCTED class {body} cokernel_dim {self.cokernel_dim}"


def solve_coboundary(cochain: Cochain1):
    """Split nu = delta(lambda) with chart-polynomial lambda, or report the obstruction.

    With det T = c z^d and t-, t+ the extreme exponents of T, T^-1 = adj T / det
    has exponents in [b-, M0], b- = (s-1) t- - d, M0 = (s-1) t+ - d; M = max(M0, 1).
    lambda_0 = nu + T lambda_1(1/z) must be polynomial, so lambda_1(1/z) = T^-1
    (lambda_0 - nu) has exponents >= lo_nu + b-.  The unknowns are the columns
    w^k g_j, k <= max(t+ + M, -(lo_nu + b-)), cut to negative exponents.  Each
    z^e v with e <= -M lies in T Q[1/z]^s, so h^1 (cokernel_dim) is the corank of
    those columns cut to [1 - M, -1].  lambda's window is window_of(nu, lambda):
    no declared window is read.  Free variables are zero, so the splitting is
    canonical, and lambda_0 is read through `restrict_section`, not the columns.
    """
    sheaf = cochain.sheaf
    s = sheaf.num_gens
    t_exps = [e for row in sheaf.transition for p in row for (e,) in p.terms]
    t_lo, t_hi = min(t_exps, default=0), max(t_exps, default=0)
    d = sheaf.det.as_monomial()[0][0]
    b_lo = (s - 1) * t_lo - d
    m = max((s - 1) * t_hi - d, 1)
    lo_nu = window_of(cochain.nu01)[0]
    top = max(t_hi + m, -(lo_nu + b_lo))
    bottom = min(lo_nu, t_lo - top)
    check_window_span((bottom, top), "coboundary system")
    # w^k g_gen restricts to -sum_i T[i][gen] z^-k g_i; its negative part
    unknowns = [(gen, k) for gen in range(s) for k in range(top + 1)]
    columns = [{(i, e - k): -c for i in range(s)
                for (e,), c in sheaf.transition[i][gen].terms.items() if e < k}
               for gen, k in unknowns]
    rhs = {(i, e): c for i in range(s)
           for (e,), c in cochain.nu01[i].terms.items() if e < 0}
    # component-major, exponent ascending: this order fixes the residual
    rows = [(i, e) for i in range(s) for e in range(bottom, 0)]

    x, residual, _ = linalg.solve_with_residual(columns, rhs, rows)
    if residual:
        _, _, rank = linalg.solve_with_residual(
            [{key: c for key, c in col.items() if key[1] > -m} for col in columns],
            {}, [(i, e) for i in range(s) for e in range(1 - m, 0)])
        terms: List[dict] = [{} for _ in range(s)]
        for (i, e), v in residual.items():
            terms[i][(e,)] = v
        return Obstruction(tuple(Poly._raw(1, t) for t in terms),
                           s * (m - 1) - rank)

    lam1_terms: List[dict] = [{} for _ in range(s)]
    for value, (gen, k) in zip(x, unknowns):
        if value:
            lam1_terms[gen][(k,)] = value
    lam1 = tuple(Poly._raw(1, t) for t in lam1_terms)
    # delta(lambda) = nu exactly when this lambda_0 is chart-polynomial
    lam0 = tuple(n + r for n, r in zip(cochain.nu01, restrict_section(sheaf, 1, lam1)))
    if not all(p.is_polynomial() for p in lam0):
        raise InternalCheckError(
            "nu + T lambda_1(1/z) is not chart-polynomial: delta(lambda) != nu")
    return Cochain0(sheaf, lam0, lam1, window_of(cochain.nu01 + lam0 + lam1))
