"""Jets of integral curves, the Picard oracle, and defect/invariance checks.

`flow_jet` reads the jet off the truncated derivation powers of
`vectorfields.derivation_powers`, the one jet engine that `lifting` shares.  The
i-th derivative of coordinate k along the integral curve of D is (D^i x_k) at
the basepoint.  `flow_jet` moves the field to the basepoint once
(x -> x + point) and grades every variable with weight 1, so every row is a
constant term: a polynomial field lowers total degree by at most 1 per
application, and after the i-th of n derivations a term of total degree above
n - i can never reach the constant term; such terms are never formed, and
`_recentre` builds only the shifts (x + p)^e -> x^j with j < n, however large e
is.  The engine clears the denominators of the recentred field: with L their
lcm it builds (L*D)^i x_k on Python ints and divides row i by L^i once.

`flow_series_picard` integrates the same curve by Picard iteration on truncated
series, and every round runs on Python ints.  It rescales the curve to
y = q * x and the time to s = t / R, with q the lcm of the point's denominators
and R = L * q^(d-1) for L the lcm of the field's coefficient denominators and d
its top degree, so the rescaled field has integer coefficients.  It carries y
as a divided-power series h_j = j! * [s^j] y: products are binomial
convolutions and integration is an index shift, so no round divides.  It never
calls `derivation_powers` or the term kernels; its only inputs are the field's
term dicts, so the two evaluations of a flow jet share no code and certify each
other.

The defect machinery compares flows of two fields whose n-jets agree.  The first
disagreement is a tangent vector equal to an iterated Lie bracket.  `verify_dj`
computes it three independent ways: from the Picard oracle, from the truncated
engine, and from the bracket.  The bracket is read at the point only: both
fields are moved there by `Poly.substitute` of x + point, not by the binomial
recentring of `flow_jet`, and `vectorfields.iterated_bracket` graded by total
degree keeps only the terms that can reach the constant term.  That truncation
is the bracket's own code, on its own integer scaling, so no part of the
bracket check is shared with the Picard oracle or the jet engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from typing import Dict, Optional, Sequence, Tuple

from .algebra import Poly, Scalar, TruncSeries, as_fraction, poly_det
from .errors import (DimensionError, InternalCheckError, OrderError,
                     PreconditionError)
from .jets import Jet, TangentVector, jet_difference, jet_from_series
from .limits import MAX_ORDER, check_limit
from .vectorfields import VectorField, derivation_powers, iterated_bracket

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

Terms = Dict[Tuple[int, ...], Fraction]


def _check_point(field: VectorField, point: Sequence[Scalar]) -> Tuple[Fraction, ...]:
    pt = tuple(as_fraction(c) for c in point)
    if len(pt) != field.num_vars:
        raise DimensionError(
            f"point has {len(pt)} coordinates, field has {field.num_vars} variables")
    return pt


def _recentre(terms: Terms, pt: Tuple[Fraction, ...], max_degree: int) -> Terms:
    """Terms of f(x + pt) of total degree <= max_degree, by binomial expansion."""
    out: Terms = {}
    for e, c in terms.items():
        partial = [((), 0, c)]       # (exponent prefix, its degree, coefficient)
        for ek, pk in zip(e, pt):
            if not ek or not pk:
                partial = [(t + (ek,), d + ek, v) for t, d, v in partial
                           if d + ek <= max_degree]
                continue
            shifts = [comb(ek, j) * pk ** (ek - j)
                      for j in range(min(ek, max_degree) + 1)]
            partial = [(t + (j,), d + j, v * shifts[j]) for t, d, v in partial
                       for j in range(min(ek, max_degree - d) + 1)]
        for t, _, v in partial:
            out[t] = out.get(t, 0) + v
    return {t: v for t, v in out.items() if v}


def flow_jet(field: VectorField, point: Sequence[Scalar], order: int) -> Jet:
    """Order-n jet of the integral curve through `point`: x_i[k] = (D^i x_k)(point)."""
    pt = _check_point(field, point)
    if order < 0:
        raise OrderError("order must be >= 0")
    check_limit("flow jet order", order, "MAX_ORDER", MAX_ORDER)
    m = field.num_vars
    components = field.components
    if order and not all(c.is_polynomial() for c in components):
        raise ValueError("flow jets need non-negative exponents")
    if any(pt):
        components = [Poly._raw(m, _recentre(c.terms, pt, order - 1))
                      for c in components]
    powers = derivation_powers(components, order, (1,) * m)
    rows = [pt] + [tuple(p.constant_term() for p in row) for row in powers[1:]]
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

    The oracle reads only the field's term dicts.  It neither recentres the
    field nor calls `derivation_powers` or the term kernels, so a fault in the
    jet engine cannot hide in both `flow_jet` and this series.
    """
    pt = _check_point(field, point)
    if order < 0:
        raise OrderError("order must be >= 0")
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
    top = [max((e[k] for h in rhs for e in h), default=0) for k in range(len(pt))]
    binom = [[comb(n, i) for i in range(n + 1)] for n in range(order + 1)]

    y = [[v] for v in y0]       # y[k][j] = h_j of y_k
    for _ in range(order):
        y = _hurwitz_round(rhs, top, y0, [col + [0] for col in y], binom)
    if _hurwitz_round(rhs, top, y0, y, binom) != y:
        raise InternalCheckError("Picard iteration failed to stabilize")
    rows = []
    scale = q
    for j in range(order + 1):
        if j:
            scale *= j * r
        rows.append(tuple(Fraction(col[j], scale) for col in y))
    return TruncSeries(len(pt), order, rows)


def _hurwitz_mul(a, b, binom):
    """Divided-power product (a*b)_n = sum_i C(n, i) a_i b_(n-i), to len(a) terms."""
    n = len(a)
    out = [0] * n
    for i, ai in enumerate(a):
        if ai:
            for j in range(n - i):
                if b[j]:
                    out[i + j] += binom[i + j][i] * ai * b[j]
    return out


def _hurwitz_round(rhs, top, y0, y, binom):
    """One Picard round on divided-power series: y0 + the integral of H(y)."""
    powers = []
    for col, e_max in zip(y, top):
        table = [None, col]
        for _ in range(1, e_max):
            table.append(_hurwitz_mul(table[-1], col, binom))
        powers.append(table)
    n = len(y[0])
    out = []
    for h, start in zip(rhs, y0):
        acc = [0] * n
        for e, c in h.items():
            term = None
            for table, ek in zip(powers, e):
                if ek:
                    p = table[ek]
                    term = p if term is None else _hurwitz_mul(term, p, binom)
            if term is None:
                acc[0] += c
                continue
            for j, v in enumerate(term):
                if v:
                    acc[j] += c * v
        out.append([start] + acc[:-1])
    return out


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
                f"defect {vec} does not equal iterated bracket {report.from_bracket}")
    return TangentVector(report.point, report.from_jets)


@dataclass(frozen=True)
class DefectReport:
    """Three independent evaluations of the same defect vector.

    `from_jets` comes from the Picard oracle, `from_derivation_powers` from the
    truncated jet engine, and `from_bracket` from the iterated Lie bracket.
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
        fmt = lambda v: "(" + ",".join(str(c) for c in v) + ")"
        return "\n".join([
            f"jet difference        : {fmt(self.from_jets)}",
            f"derivation powers     : {fmt(self.from_derivation_powers)}",
            f"iterated bracket      : {fmt(self.from_bracket)}",
            f"agree                 : {'yes' if self.agree else 'NO'}",
        ])


def verify_dj(d1: VectorField, d2: VectorField, point: Sequence[Scalar],
              order: int) -> DefectReport:
    """Compute the flow-jet defect three ways and report whether they coincide.

    Each field's jet is computed once by `flow_jet`, at order n+1; the
    precondition (the order-n prefixes agree) is checked on it, not assumed.
    (a) jet difference: the order-(n+1) Picard series of both fields, read as
    jets and subtracted.  (b) derivation powers: ((D2^{n+1} - D1^{n+1}) x_k) at
    the point, the top rows of the truncated jets.  (c) the iterated bracket
    [d1, d2]^(n+1) at the point: both fields are moved to the point by
    `Poly.substitute` of x + point, and `iterated_bracket` with every weight 1
    builds only the terms that can reach the constant term, which is read off.
    (c) neither calls `derivation_powers` nor `_recentre`, and its truncation
    and integer scaling are the bracket's own, so a fault in the jet engine or
    in the Picard oracle cannot hide in it.  The three share no jet code.
    """
    if order < 1:
        raise OrderError("defects need order >= 1")
    pt = _check_point(d1, point)
    j1 = flow_jet(d1, pt, order + 1)
    j2 = flow_jet(d2, pt, order + 1)
    bad = _first_jet_disagreement(j1, j2, order)
    if bad is not None:
        raise PreconditionError(
            f"flow jets differ at order {bad}: {j1.coords[bad]} != {j2.coords[bad]}")

    a = jet_difference(jet_from_series(flow_series_picard(d2, pt, order + 1)),
                       jet_from_series(flow_series_picard(d1, pt, order + 1))).vec
    b = tuple(x2 - x1 for x1, x2 in zip(j1.coords[-1], j2.coords[-1]))
    m = len(pt)
    if any(pt):
        shift = [Poly.variable(m, k) + Poly.constant(m, p) for k, p in enumerate(pt)]
        d1, d2 = (VectorField([comp.substitute(shift) for comp in d.components])
                  for d in (d1, d2))
    bracket = iterated_bracket(d1, d2, order + 1, (1,) * m)
    c = tuple(comp.constant_term() for comp in bracket.components)
    return DefectReport(order, pt, a, b, c)


# -- rank-stratum invariance along flows -------------------------------------

@dataclass(frozen=True)
class MinorViolation:
    rows: Tuple[int, ...]
    cols: Tuple[int, ...]
    first_nonzero_order: int
    coefficient: Fraction


@dataclass(frozen=True)
class InvarianceReport:
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
                             point: Sequence[Scalar], order: int = 10) -> InvarianceReport:
    """Check that rank minors vanish along the flow of a combination of generators.

    `combo` gives D = sum_k combo[k] * gens[k]; requiring the combination up front is
    what guarantees D is a section of the distribution.  With r the rank at the
    starting point, every (r+1)x(r+1) minor of the generator component matrix is
    composed with the order-N Picard flow of D and must vanish identically.
    """
    from .frobenius import rank_at  # local import to avoid a module cycle

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
    pt = _check_point(field, point)
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
