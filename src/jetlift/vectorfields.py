"""Polynomial vector fields as derivations.

A field D = sum a_k d/dx_k acts on functions by Df = sum a_k df/dx_k.  Brackets are
computed on components, with the derivation identity kept as a cross-check in the
test suite rather than as the definition.  Fields on m+1 variables whose last
variable plays the role of time are classified by their time component: identically 0
("time dependent" sections of the spatial subsheaf), identically 1 ("constant flow in
time"), or neither.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from . import _kernel_py
from ._backend import kernel as _k
from .algebra import Poly, Scalar, as_fraction
from .errors import ClassificationError, DimensionError, OrderError
from .limits import MAX_ORDER, check_limit

__all__ = [
    "VectorField",
    "TimeClass",
    "apply_derivation",
    "derivation_powers",
    "lie_bracket",
    "iterated_bracket",
    "extend_constant_flow",
    "time_component_class",
    "graph_embed",
]


class VectorField:
    """Tuple of component polynomials; component k multiplies d/dx_k."""

    __slots__ = ("num_vars", "components")

    def __init__(self, components: Sequence[Poly]):
        comps = tuple(components)
        if not comps:
            raise ValueError("a vector field needs at least one component")
        num_vars = comps[0].num_vars
        for c in comps:
            if c.num_vars != num_vars:
                raise DimensionError("components disagree on the number of variables")
        if len(comps) != num_vars:
            raise DimensionError(
                f"{len(comps)} components for {num_vars} variables")
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):
        raise AttributeError("VectorField is immutable")

    @classmethod
    def zero(cls, num_vars: int) -> "VectorField":
        return cls([Poly.zero(num_vars)] * num_vars)

    @classmethod
    def coordinate(cls, num_vars: int, k: int) -> "VectorField":
        """The constant field d/dx_k."""
        comps = [Poly.zero(num_vars)] * num_vars
        comps[k] = Poly.one(num_vars)
        return cls(comps)

    def value_at(self, point: Sequence[Scalar]) -> Tuple[Fraction, ...]:
        return tuple(c.eval(point) for c in self.components)

    def __add__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        if self.num_vars != other.num_vars:
            raise DimensionError("fields have different variable counts")
        return VectorField([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        if self.num_vars != other.num_vars:
            raise DimensionError("fields have different variable counts")
        return VectorField([a - b for a, b in zip(self.components, other.components)])

    def __neg__(self):
        return VectorField([-a for a in self.components])

    def scale(self, c) -> "VectorField":
        c = c if isinstance(c, Poly) else as_fraction(c)
        return VectorField([comp * c for comp in self.components])

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def render(self, names: Sequence[str] = None) -> str:
        return ", ".join(c.render(names) for c in self.components)

    def __repr__(self):
        return f"VectorField({self.render()!r})"


# Fields with a distinguished time variable are plain VectorFields whose last
# variable is time; the classification is computed, never stored.
class TimeClass(enum.Enum):
    TIME_DEPENDENT_IN_F = "TimeDependentInF"
    CONSTANT_FLOW = "ConstantFlow"
    NEITHER = "Neither"

    def __str__(self):
        return self.value


def apply_derivation(field: VectorField, f: Poly) -> Poly:
    """Df = sum_k a_k df/dx_k, exact."""
    if field.num_vars != f.num_vars:
        raise DimensionError(
            f"field on {field.num_vars} variables applied to a "
            f"{f.num_vars}-variable polynomial")
    terms = _k.derive_terms([c.terms for c in field.components], f.terms)
    return Poly._raw(f.num_vars, terms)


def derivation_powers(components: Sequence[Poly], order: int,
                      weights: Sequence[int],
                      starts: Optional[Sequence[Tuple[int, ...]]] = None
                      ) -> List[List[Poly]]:
    """Truncated powers of D = sum_k components[k] d/dx_k.

    powers[i][s] is D^i of the start monomial x^starts[s] (by default the
    coordinates, so powers[i][k] is D^i x_k) with every term of weighted degree
    above order - i dropped (and no other term lost), where x^e has weighted
    degree sum_k weights[k] * e_k, each weight is 0 or 1, and weighted exponents
    are non-negative.  d/dx_k lowers weighted degree by weights[k] <= 1 and a
    component never lowers it, so a dropped term can never reach weighted degree
    0 in the remaining applications: the weighted-degree-0 part of every power
    is exact.  A start monomial, like a component, may carry negative exponents
    on weight-0 variables only (e.g. x^-1 with x of weight 0): there they leave
    every weighted degree as it was, so the same truncation holds.

    The powers are computed fraction-free, on Python ints.  With L the lcm of
    the components' coefficient denominators (1 for integer or zero
    components), L * D has integer coefficients and D^i x_k = (L*D)^i x_k / L^i:
    the loop builds (L*D)^i x_k as int term dicts, and row i becomes a Poly
    once, with coefficients Fraction(c, L^i).  The compiled kernel takes
    Fractions only, so the loop calls the pure kernel `_kernel_py` whichever
    kernel `_backend` selected; ints never reach the compiled kernel.
    """
    m = len(components)
    scale = lcm(*(c.denominator for comp in components for c in comp.terms.values()))
    graded = [k for k, w in enumerate(weights) if w]
    all_graded = len(graded) == m
    if all_graded:
        grade = sum
    elif len(graded) == 1:
        grade = itemgetter(graded[0])
    else:
        grade = lambda e: sum([e[k] for k in graded])  # noqa: E731
    # levels[j][k]: scale * components[k] cut to weighted degree <= j - 1 + weights[k].
    # A term of degree g of components[k] times d/dx_k of a degree-d term has
    # degree g + d - weights[k], so under the cap the degree-d part of a power
    # meets exactly levels[cap + 1 - d].
    levels: List[List[dict]] = [[{} for _ in range(m)] for _ in range(order + 1)]
    for k, comp in enumerate(components):
        for e, c in comp.terms.items():
            g = grade(e)
            if g < order:
                c = c.numerator * (scale // c.denominator)
                for level in levels[g + 1 - weights[k]:]:
                    level[k][e] = c
    if starts is None:
        starts = [tuple(int(j == k) for j in range(m)) for k in range(m)]
    row = [{e: 1} if grade(e) <= order else {} for e in starts]
    rows = [row]
    for i in range(1, order + 1):
        cap = order - i
        next_row = []
        for p in row:
            by_grade: dict = {}
            for e, c in p.items():
                by_grade.setdefault(grade(e), {})[e] = c
            out: dict = {}
            for d, part in by_grade.items():
                # with every variable graded a degree-0 part is a constant
                if not d and all_graded:
                    continue
                part = _kernel_py.derive_terms(levels[cap + 1 - d], part)
                if part:
                    out = _kernel_py.add_terms(out, part) if out else part
            next_row.append(out)
        row = next_row
        rows.append(row)
    powers = []
    for i, row in enumerate(rows):
        denominator = scale ** i
        powers.append([Poly._raw(m, {e: Fraction(c, denominator) for e, c in p.items()})
                       for p in row])
    return powers


def lie_bracket(d1: VectorField, d2: VectorField) -> VectorField:
    """[D1, D2], component k = D1(D2^k) - D2(D1^k)."""
    if d1.num_vars != d2.num_vars:
        raise DimensionError("fields have different variable counts")
    return VectorField([
        apply_derivation(d1, b) - apply_derivation(d2, a)
        for a, b in zip(d1.components, d2.components)
    ])


def iterated_bracket(d1: VectorField, d2: VectorField, n: int,
                     weights: Optional[Sequence[int]] = None) -> VectorField:
    """[D1, D2]^(n): the base case n=2 is the plain bracket, then [D1, . ] repeatedly.

    Without `weights` the result is the whole bracket.  With `weights`, read as
    in `derivation_powers` (x^e has weighted degree sum_k weights[k] * e_k, each
    weight is 0 or 1, weighted exponents are non-negative), only the
    weighted-degree-0 part of the result is exact.  Level 1 is D2 and level j is
    [D1, level j-1].  A term of degree g of a field's component i times d/dx_i
    of a degree-d term has degree g + d - weights[i], at least g - 1 and at
    least d - 1, so a bracket lowers weighted degree by at most 1: of level j
    only the terms of degree <= n - j can reach degree 0 at level n, and of D1
    and D2 only those of degree <= n - 1.  Level j keeps exactly those terms,
    and the products that would exceed its cap are never formed.  With every
    weight 0 every term has degree 0 and nothing is dropped, which is the
    unweighted case.

    The loop runs on Python ints.  With L1 and L2 the lcms of the coefficient
    denominators of the cut D1 and D2, level j is built from L1*D1 and L2*D2,
    which gives L1^(j-1) * L2 times the bracket, and the result is divided once.
    The compiled kernel takes Fractions only, so the loop calls the pure kernel
    `_kernel_py` whichever kernel `_backend` selected.  The bracket shares no
    code with `derivation_powers`, so it can certify the jet engine.
    """
    if n < 2:
        raise OrderError(f"iterated bracket needs n >= 2, got {n}")
    check_limit("iterated bracket n", n, "MAX_ORDER", MAX_ORDER)
    if d1.num_vars != d2.num_vars:
        raise DimensionError("fields have different variable counts")
    m = d1.num_vars
    weights = tuple(weights) if weights is not None else (0,) * m
    if len(weights) != m or any(w not in (0, 1) for w in weights):
        raise ValueError(f"bracket weights must be {m} values of 0 or 1, got {weights}")
    graded = [k for k, w in enumerate(weights) if w]
    if len(graded) == m:
        grade = sum
    elif len(graded) == 1:
        grade = itemgetter(graded[0])
    else:
        grade = lambda e: sum([e[k] for k in graded])  # noqa: E731

    def scaled(field):
        comps = [{e: c for e, c in comp.terms.items() if grade(e) < n}
                 for comp in field.components]
        big = lcm(*(c.denominator for comp in comps for c in comp.values()))
        return big, [{e: c.numerator * (big // c.denominator) for e, c in comp.items()}
                     for comp in comps]

    def cutter(field):
        # cut(c)[i]: component i of `field` cut to weighted degree <= c + weights[i]
        graded_terms = [[(grade(e), e, c) for e, c in comp.items()] for comp in field]
        cache: dict = {}

        def cut(c):
            if c not in cache:
                cache[c] = [{e: v for g, e, v in comp if g <= c + w}
                            for comp, w in zip(graded_terms, weights)]
            return cache[c]
        return cut

    def capped_derive(cut, terms, cap):
        # sum_i F_i * d(terms)/dx_i cut to weighted degree <= cap: the degree-d
        # part of `terms` meets F cut at cap - d, and no product above cap is formed
        parts: dict = {}
        for e, c in terms.items():
            parts.setdefault(grade(e), {})[e] = c
        out: dict = {}
        for d, part in parts.items():
            part = _kernel_py.derive_terms(cut(cap - d), part)
            if part:
                out = _kernel_py.add_terms(out, part) if out else part
        return out

    l1, a = scaled(d1)
    l2, row = scaled(d2)
    cut_a = cutter(a)
    for j in range(2, n + 1):
        cap = n - j
        cut_row = cutter(row)
        row = [_kernel_py.add_terms(capped_derive(cut_a, r_k, cap),
                                    _kernel_py.neg_terms(capped_derive(cut_row, a_k, cap)))
               for r_k, a_k in zip(row, a)]
    denominator = l1 ** (n - 1) * l2
    return VectorField([Poly._raw(m, {e: Fraction(c, denominator) for e, c in comp.items()})
                        for comp in row])


def time_component_class(field: VectorField) -> TimeClass:
    """Classify by the last (time) component: identically 0, identically 1, or neither."""
    t_comp = field.components[-1]
    if t_comp.is_zero():
        return TimeClass.TIME_DEPENDENT_IN_F
    if t_comp == Poly.one(field.num_vars):
        return TimeClass.CONSTANT_FLOW
    return TimeClass.NEITHER


def extend_constant_flow(field: VectorField) -> VectorField:
    """Add d/dt to a field with zero time component (last variable is time)."""
    if time_component_class(field) is not TimeClass.TIME_DEPENDENT_IN_F:
        raise ClassificationError(
            "constant-flow extension needs an identically zero time component, "
            f"got {field.components[-1]}")
    comps = list(field.components)
    comps[-1] = Poly.one(field.num_vars)
    return VectorField(comps)


def graph_embed(f_components: Sequence[Poly],
                gens: Sequence[VectorField]):
    """Embed a morphism y -> f(y) as a graph and push generators along.

    f_components are m polynomials in p domain variables.  Returns the graph map
    y -> (y, f(y)) as p+m polynomials in p variables, and each generator
    D = (a_1, ..., a_m) re-read on p+m variables as (0, ..., 0, a_1, ..., a_m).
    """
    f_comps = tuple(f_components)
    if not f_comps:
        raise DimensionError("the morphism needs at least one component")
    p = f_comps[0].num_vars
    m = len(f_comps)
    for c in f_comps:
        if c.num_vars != p:
            raise DimensionError("morphism components disagree on domain variables")
    graph_map = tuple(Poly.variable(p, i) for i in range(p)) + f_comps
    embedded = []
    for d in gens:
        if d.num_vars != m:
            raise DimensionError(
                f"generator on {d.num_vars} variables does not match morphism "
                f"target dimension {m}")
        comps = [Poly.zero(p + m)] * p
        comps += [c.reindex(p + m, range(p, p + m)) for c in d.components]
        embedded.append(VectorField(comps))
    return graph_map, embedded
