"""Jets of integral curves, the Picard oracle, and defect/invariance checks.

The i-th derivative of coordinate k along the integral curve of D is
(D^i x_k) at the basepoint.  `flow_jet` reads it off the Taylor recurrence,
the point's own engine: the jet tower of `vectorfields` serves the curve of
`lifting` alone.  The recurrence clears the denominators of the point and of
the coefficients once, rescaling the curve to y = q * x and the time to
s = t / R as the Picard oracle does, and carries y as a divided-power series
h_j = j! * [s^j] y, on Python ints.  Each step reads one new coefficient of
every monomial of the field along the curve, each held as a series that is
the Leibniz product of two halves, so y^e costs O(log |e|) series and each
new coefficient O(n) products; a row is divided once.  It calls neither
`JetTower` nor the term kernels nor any code of the oracle.

`flow_series_picard` integrates the same curve by Picard iteration on truncated
series, and every round runs on Python ints.  It rescales the curve to
y = q * x and the time to s = t / R, with q the lcm of the point's denominators
and R = L * q^(d-1) for L the lcm of the field's coefficient denominators and d
its top degree, so the rescaled field has integer coefficients.  It carries y
as a divided-power series h_j = j! * [s^j] y: products are binomial
convolutions and integration is an index shift, so no round divides.  A round
is one `algebra.series_compose` over that product, the composer that
`Poly.compose_series` runs on Fractions with the Cauchy product.  It never
calls `JetTower`, the term kernels or the recurrence; its only inputs are the
field's term dicts, so the two evaluations of a flow jet share no code and
certify each other.

The defect machinery compares flows of two fields whose n-jets agree.  The first
disagreement is a tangent vector equal to an iterated Lie bracket.  `verify_dj`
computes it three independent ways: from the Picard oracle, from the Taylor
recurrence, and from the bracket.  The bracket is read at the point only: both
fields are moved there by a Taylor shift through `Poly.partial` and
`Poly.eval` that stops at the total degree the bracket reads, and
`vectorfields.iterated_bracket` graded by total degree keeps only the terms
that can reach the constant term.  That truncation is the bracket's own code,
on its own integer scaling, so no part of the bracket check is shared with the
Picard oracle or the recurrence.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import combinations
from math import comb, lcm
from operator import mul
from typing import NamedTuple, Optional, Sequence, Tuple

from .algebra import (Poly, Scalar, TruncSeries, exact_point, poly_det,
                      series_compose)
from .errors import (DimensionError, InternalCheckError, OrderError,
                     PreconditionError)
from .frobenius import rank_at
from .jets import Jet, TangentVector, jet_difference, jet_from_series, render_vector
from .limits import MAX_ORDER, check_limit
from .vectorfields import VectorField, iterated_bracket

__all__ = [
    "flow_jet",
    "flow_series_picard",
    "jet_defect",
    "verify_dj",
    "DefectReport",
    "stratum_invariance_check",
    "InvarianceReport",
    "MinorViolation",
]

def flow_jet(field: VectorField, point: Sequence[Scalar], order: int) -> Jet:
    """Order-n jet of the integral curve through `point`: x_i[k] = (D^i x_k)(point).

    The Taylor recurrence on the scaled curve of `flow_series_picard`: y = q * x
    and s = t / R solve dy/ds = H(y) with H on ints and y(0) = q * point.  With
    h_n = n! * [s^n] y, h_(n+1) = n! * [s^n] H(y), so each step reads
    coefficient n of every monomial y^e in H.  Each is held as a divided-power
    series, the Leibniz product of two halves y^a * y^b with |a| = |e| // 2
    (a coordinate's series is y's own column), so y^e costs O(log |e|) series.
    Every step appends coefficient n to every series, lower total degree
    first, then h_(n+1) to y.  Row i of the jet is h_i / (q * R^i).
    """
    pt = exact_point(point, field.num_vars, "field")
    if order < 0:
        raise OrderError("order must be >= 0")
    check_limit("flow jet order", order, "MAX_ORDER", MAX_ORDER)
    m = field.num_vars
    components = field.components
    if not order:
        return Jet(m, 0, [pt])
    if not all(c.is_polynomial() for c in components):
        raise ValueError("flow jets need non-negative exponents")
    q = lcm(*(c.denominator for c in pt))
    big_l = lcm(*(c.denominator for comp in components for c in comp.terms.values()))
    d = max([1] + [sum(e) for comp in components for e in comp.terms])
    r = big_l * q ** (d - 1)
    rhs = [[(e, c.numerator * (big_l // c.denominator) * q ** (d - sum(e)))
            for e, c in comp.terms.items()] for comp in components]
    cols = [[c.numerator * (q // c.denominator)] for c in pt]   # cols[k][n]: h_n of y_k
    series = {(0,) * m: [1] + [0] * order}
    for k, col in enumerate(cols):
        series[tuple(int(j == k) for j in range(m))] = col
    halves = []                 # (e, a, b): y^e = y^a * y^b, |a| = |e| // 2
    todo = [e for comp in rhs for e, _ in comp]
    while todo:
        e = todo.pop()
        if e in series:
            continue
        need, a = sum(e) // 2, []
        for ek in e:
            a.append(min(ek, need))
            need -= a[-1]
        a = tuple(a)
        b = tuple(x - y for x, y in zip(e, a))
        series[e] = []
        halves.append((e, a, b))
        todo += [a, b]
    plan = [(series[e], series[a], series[b])
            for e, a, b in sorted(halves, key=lambda h: sum(h[0]))]
    rhs = [[(series[e], c) for e, c in comp] for comp in rhs]
    for n in range(order):
        binom = [comb(n, i) for i in range(n + 1)]
        for out, a, b in plan:
            out.append(sum(map(mul, binom, map(mul, a, reversed(b)))))
        for col, comp in zip(cols, rhs):
            col.append(sum([c * s[n] for s, c in comp]))
    rows = [pt]
    scale = q
    for i in range(1, order + 1):
        scale *= r
        rows.append(tuple(Fraction(col[i], scale) for col in cols))
    return Jet(m, order, rows)


def flow_series_picard(field: VectorField, point: Sequence[Scalar],
                       order: int) -> TruncSeries:
    """Truncated integral-curve series by Picard iteration on integers.

    gamma_{j+1}(t) = point + integral_0^t D(gamma_j(s)) ds, run on a scaled copy
    of the curve so that no round divides.  With q the lcm of the point's
    denominators, L that of the field's coefficients, d = max(1, top total
    degree) and R = L * q^(d-1), y = q * x solves dy/ds = H(y) for s = t / R,
    where H_k = sum L * c_e * q^(d-|e|) * y^e has integer coefficients and
    y(0) = q * point is an integer vector.  y is carried as a divided-power
    series h_j = j! * [s^j] y, whose product is binomial convolution and whose
    integral is an index shift.  Coefficient j of gamma is h_j / (j! * q * R^j),
    formed once at the end.

    Coefficient j of the Picard map depends only on coefficients below j, so
    round j runs to order j and fixes coefficient j.  One more round at full
    order must reproduce the series; that fixed point is asserted, and it
    certifies the result.

    The oracle reads only the field's term dicts.  It calls neither
    `flow_jet`'s recurrence nor `JetTower` nor the term kernels, so a fault
    in the recurrence cannot hide in both `flow_jet` and this series.
    """
    pt = exact_point(point, field.num_vars, "field")
    if order < 0:
        raise OrderError("order must be >= 0")
    check_limit("Picard series order", order, "MAX_ORDER", MAX_ORDER)
    components = field.components
    if not all(c.is_polynomial() for c in components):
        raise ValueError("Picard series need non-negative exponents")
    q = lcm(*(c.denominator for c in pt))
    big_l = lcm(*(c.denominator for comp in components for c in comp.terms.values()))
    d = max([1] + [sum(e) for comp in components for e in comp.terms])
    r = big_l * q ** (d - 1)
    rhs = [{e: c.numerator * (big_l // c.denominator) * q ** (d - sum(e))
            for e, c in comp.terms.items()} for comp in components]
    y0 = [c.numerator * (q // c.denominator) for c in pt]
    binom = [[comb(n, i) for i in range(n + 1)] for n in range(order + 1)]
    mul = partial(_hurwitz_mul, binom)

    y = [[v] for v in y0]       # y[k][j] = h_j of y_k
    for _ in range(order):
        y = _hurwitz_round(rhs, y0, [col + [0] for col in y], mul)
    if _hurwitz_round(rhs, y0, y, mul) != y:
        raise InternalCheckError("Picard iteration failed to stabilize")
    rows = []
    scale = q
    for j in range(order + 1):
        if j:
            scale *= j * r
        rows.append(tuple(Fraction(col[j], scale) for col in y))
    return TruncSeries(len(pt), order, rows)


def _hurwitz_mul(binom, a, b, order, zero):
    """Divided-power product (a*b)_n = sum_i C(n, i) a_i b_(n-i), to `order`."""
    out = [zero] * (order + 1)
    for i, ai in enumerate(a):
        if ai:
            for j in range(order + 1 - i):
                if b[j]:
                    out[i + j] += binom[i + j][i] * ai * b[j]
    return out


def _hurwitz_round(rhs, y0, y, mul):
    """One Picard round on divided-power series: y0 + the integral of H(y)."""
    images = series_compose(rhs, y, len(y[0]) - 1, 0, mul)
    return [[start] + h[:-1] for start, h in zip(y0, images)]


def _first_jet_disagreement(j1: Jet, j2: Jet, order: int) -> Optional[int]:
    for i in range(order + 1):
        if j1.coords[i] != j2.coords[i]:
            return i
    return None


def jet_defect(d1: VectorField, d2: VectorField, point: Sequence[Scalar],
               order: int) -> TangentVector:
    """Difference of the order-(n+1) flow jets of two fields whose n-jets agree.

    Orientation: flow of d2 minus flow of d1.  This is `verify_dj` with its
    verdict enforced: a defect that differs from the iterated bracket
    [d1, d2]^(n+1) at the point would falsify the defect identity and raises
    InternalCheckError.
    """
    report = verify_dj(d1, d2, point, order)
    for vec in (report.from_jets, report.from_derivation_powers):
        if vec != report.from_bracket:
            raise InternalCheckError(
                f"defect {render_vector(vec)} does not equal iterated bracket "
                f"{render_vector(report.from_bracket)}")
    return TangentVector(report.point, report.from_jets)


class DefectReport(NamedTuple):
    """Three independent evaluations of the same defect vector.

    `from_jets` comes from the Picard oracle, `from_derivation_powers` from the
    Taylor recurrence of `flow_jet` (the top rows of its jets are the
    derivation powers at the point), and `from_bracket` from the iterated Lie
    bracket.
    """
    order: int
    point: Tuple[Fraction, ...]
    from_jets: Tuple[Fraction, ...]
    from_derivation_powers: Tuple[Fraction, ...]
    from_bracket: Tuple[Fraction, ...]

    @property
    def agree(self) -> bool:
        return self.from_jets == self.from_derivation_powers == self.from_bracket

    def render(self) -> str:
        return "\n".join([
            f"jet difference        : {render_vector(self.from_jets)}",
            f"derivation powers     : {render_vector(self.from_derivation_powers)}",
            f"iterated bracket      : {render_vector(self.from_bracket)}",
            f"agree                 : {'yes' if self.agree else 'NO'}",
        ])


def verify_dj(d1: VectorField, d2: VectorField, point: Sequence[Scalar],
              order: int) -> DefectReport:
    """Compute the flow-jet defect three ways and report whether they coincide.

    Each field's jet is computed once by `flow_jet`, at order n+1; the
    precondition (the order-n prefixes agree) is checked on it, not assumed.
    (a) jet difference: the order-(n+1) Picard series of both fields, read as
    jets and subtracted.  (b) derivation powers: ((D2^{n+1} - D1^{n+1}) x_k) at
    the point, the top rows of the `flow_jet` jets, which the Taylor
    recurrence computes without the oracle's code.  (c) the iterated bracket
    [d1, d2]^(n+1) at the point: both fields are moved to the point by a
    Taylor shift (`_taylor_shift`, through `Poly.partial` and `Poly.eval`) that
    keeps only the terms of total degree <= n, all the bracket reads, and
    `iterated_bracket` with every weight 1 builds only the terms that can
    reach the constant term, which is read off.
    (c) calls neither the recurrence nor `JetTower`, and its truncation
    and integer scaling are the bracket's own, so a fault in the recurrence or
    in the Picard oracle cannot hide in it.  The three share no jet code.
    """
    if order < 1:
        raise OrderError("defects need order >= 1")
    pt = exact_point(point, d1.num_vars, "field")
    j1 = flow_jet(d1, pt, order + 1)
    j2 = flow_jet(d2, pt, order + 1)
    bad = _first_jet_disagreement(j1, j2, order)
    if bad is not None:
        raise PreconditionError(
            f"flow jets differ at order {bad}: {render_vector(j1.coords[bad])} != "
            f"{render_vector(j2.coords[bad])}")

    a = jet_difference(jet_from_series(flow_series_picard(d2, pt, order + 1)),
                       jet_from_series(flow_series_picard(d1, pt, order + 1))).vec
    b = tuple(x2 - x1 for x1, x2 in zip(j1.coords[-1], j2.coords[-1]))
    m = len(pt)
    if any(pt):
        d1, d2 = (VectorField([_taylor_shift(comp, pt, order) for comp in d.components])
                  for d in (d1, d2))
    bracket = iterated_bracket(d1, d2, order + 1, (1,) * m)
    c = tuple(comp.constant_term() for comp in bracket.components)
    return DefectReport(order, pt, a, b, c)


def _taylor_shift(p: Poly, pt: Tuple[Fraction, ...], max_degree: int) -> Poly:
    """Terms of p(x + pt) of total degree <= max_degree, by Taylor's formula.

    The coefficient of x^a is (d^a p)(pt) / a!, read off `Poly.partial` and
    `Poly.eval`.  Each multi-index a is reached once, differentiating in
    non-decreasing variable order, and a zero derivative ends its branch.
    """
    m = p.num_vars
    terms = {}
    stack = [(p, (0,) * m, 0, 1)]      # (d^a p, a, first variable to differentiate, a!)
    while stack:
        q, a, first, a_factorial = stack.pop()
        value = q.eval(pt)
        if value:
            terms[a] = value / a_factorial
        if sum(a) == max_degree:
            continue
        for k in range(first, m):
            dq = q.partial(k)
            if not dq.is_zero():
                b = a[:k] + (a[k] + 1,) + a[k + 1:]
                stack.append((dq, b, k, a_factorial * b[k]))
    return Poly._raw(m, terms)


# -- rank-stratum invariance along flows -------------------------------------

class MinorViolation(NamedTuple):
    rows: Tuple[int, ...]
    cols: Tuple[int, ...]
    first_nonzero_order: int
    coefficient: Fraction


class InvarianceReport(NamedTuple):
    rank: int
    order: int
    minors_checked: int
    violations: Tuple[MinorViolation, ...]

    @property
    def invariant(self) -> bool:
        return not self.violations

    def render(self) -> str:
        head = (f"rank {self.rank}; {self.minors_checked} minor(s) composed with the "
                f"flow to order {self.order}")
        if self.invariant:
            return head + ": all vanish"
        lines = [head + f": {len(self.violations)} VIOLATION(S)"]
        for v in self.violations:
            lines.append(
                f"  minor rows={v.rows} cols={v.cols}: first nonzero coefficient "
                f"{v.coefficient} at t^{v.first_nonzero_order}")
        return "\n".join(lines)


def stratum_invariance_check(distribution, combo: Sequence[Poly],
                             point: Sequence[Scalar], order: int) -> InvarianceReport:
    """Check that rank minors vanish along the flow of a combination of generators.

    `combo` gives D = sum_k combo[k] * gens[k]; requiring the combination up front is
    what guarantees D is a section of the distribution.  With r the rank at the
    starting point, every (r+1)x(r+1) minor of the generator component matrix is
    composed with the order-N Picard flow of D and must vanish identically.
    """
    if order < 0:
        raise OrderError("order must be >= 0")
    check_limit("invariance order", order, "MAX_ORDER", MAX_ORDER)
    m = distribution.num_vars
    gens = distribution.gens
    if len(combo) != len(gens):
        raise DimensionError(f"{len(combo)} coefficients for {len(gens)} generators")
    for c in combo:
        if c.num_vars != m:
            raise DimensionError("combination coefficients live on the wrong space")
    field = VectorField.zero(m)
    for c, g in zip(combo, gens):
        field = field + g.scale(c)
    pt = exact_point(point, field.num_vars, "field")
    r = rank_at(distribution, pt)
    size = r + 1
    if size > m or size > len(gens):
        return InvarianceReport(r, order, 0, ())

    gamma = flow_series_picard(field, pt, order)
    violations = []
    checked = 0
    for rows in combinations(range(m), size):
        for cols in combinations(range(len(gens)), size):
            checked += 1
            sub = [[gens[j].components[i] for j in cols] for i in rows]
            minor = poly_det(sub)
            composed = minor.compose_series(gamma).component(0)
            for j, coeff in enumerate(composed):
                if coeff:
                    violations.append(MinorViolation(rows, cols, j, coeff))
                    break
    return InvarianceReport(r, order, checked, tuple(violations))
