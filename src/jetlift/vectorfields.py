"""Polynomial vector fields as derivations.

A field D = sum a_k d/dx_k acts on functions by Df = sum a_k df/dx_k.  Brackets are
computed on components, with the derivation identity kept as a cross-check in the
test suite rather than as the definition.  Fields on m+1 variables whose last
variable plays the role of time are classified by their time component: identically 0
("time dependent" sections of the spatial subsheaf), identically 1 ("constant flow in
time"), or neither.  The truncated powers of a field, the one jet engine of
`flows` and `lifting`, are held by a `JetTower`, computed one level at a time
on integer coefficients and packed integer exponent keys, by a product loop of
its own.  `apply_derivation` and `iterated_bracket` run the term kernels on
exponent tuples and share no code with it, so they can certify it.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import lcm
from operator import itemgetter, mul
from typing import Optional, Sequence, Tuple

from . import _kernel_py
from .algebra import Poly, Scalar, as_fraction
from .errors import (ClassificationError, DimensionError, InternalCheckError,
                     OrderError)
from .limits import MAX_ORDER, check_limit

__all__ = [
    "VectorField",
    "TimeClass",
    "apply_derivation",
    "JetTower",
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
    terms = _kernel_py.derive_terms([c.terms for c in field.components], f.terms)
    return Poly._raw(f.num_vars, terms)


def _grader(weights: Sequence[int]):
    """x^e -> sum_k weights[k] * e_k, for weights of 0 or 1."""
    graded = [k for k, w in enumerate(weights) if w]
    if len(graded) == len(weights):
        return sum
    if len(graded) == 1:
        return itemgetter(graded[0])
    return lambda e: sum([e[k] for k in graded])  # noqa: E731


def _digit_bits(starts: Sequence[Tuple[int, ...]], components: Sequence[Poly]) -> int:
    """The digit width b of a tower's keys: every exponent of a row below
    MAX_ORDER + 1 is smaller in size than 2^(b-1), the balanced digit's bound."""
    start = max(map(abs, chain.from_iterable(starts)), default=0)
    comp = max(map(abs, chain.from_iterable(chain.from_iterable(
        c.terms for c in components))), default=0)
    return (start + (MAX_ORDER + 1) * (comp + 1)).bit_length() + 1


class _Keys:
    """Packed keys of digit width b for `weights` on m variables.

    The key of x^e is sum_k e_k * places[k], places[k] = 2^(b*k) +
    weights[k] * 2^(b*m): m balanced base-2^b digits, digit k holding e_k in
    [-2^(b-1), 2^(b-1)), under a top digit that holds the weighted degree.
    Adding `off` makes each digit non-negative, e_k + half, so that one shift
    and one mask read it, and one shift by `top` reads the weighted degree.
    """

    __slots__ = ("bits", "places", "top", "half", "mask", "off", "shifts")

    def __init__(self, bits: int, weights: Tuple[int, ...]):
        self.bits = bits
        self.top = bits * len(weights)
        self.places = tuple((1 << bits * k) + (w << self.top)
                            for k, w in enumerate(weights))
        self.half = 1 << bits - 1
        self.mask = (1 << bits) - 1
        self.shifts = tuple(range(0, self.top, bits))
        self.off = sum(self.half << s for s in self.shifts)

    def pack(self, e: Tuple[int, ...]) -> int:
        return sum(map(mul, e, self.places))

    def unpack(self, key: int) -> Tuple[int, ...]:
        key += self.off
        mask, half = self.mask, self.half
        e = []
        for s in self.shifts:
            e.append((key >> s & mask) - half)
        return tuple(e)


_keys = lru_cache(maxsize=None)(_Keys)


def _derive_into(out: dict, band, part: dict, keys: _Keys) -> None:
    """Add sum_k band_k * d(part)/dx_k to `out`, on packed keys; zero sums stay.

    `band` holds (b * k, terms) per component k, each term's key that of
    x^e / x_k, so d/dx_k of x^e reads e_k with one shift and one mask, and a
    product is one add of keys.
    """
    off, mask, half = keys.off, keys.mask, keys.half
    get = out.get
    for shift, terms in band:
        for kb, cb in part.items():
            e = ((kb + off) >> shift & mask) - half
            if e:
                cb *= e
                for ka, ca in terms:
                    key = ka + kb
                    out[key] = get(key, 0) + ca * cb


class JetTower:
    """Truncated powers of D = sum_k components[k] d/dx_k, built level by level.

    Row i of start s is D^i of the monomial x^starts[s] (by default the
    coordinates, so row i of start k is D^i x_k).  x^e has weighted degree
    sum_k weights[k] * e_k, each weight is 0 or 1, and weighted exponents are
    non-negative; a start or a component may carry negative exponents on
    weight-0 variables only (e.g. x^-1 with x of weight 0), where they leave
    every weighted degree as it was.  The weighted-degree-d part of row i is
    the slice (i, d), at level i + d.  A term of weighted degree g of
    components[k] times d/dx_k of a slice at level l lands at level
    l + g - weights[k] + 1 >= l, and at least g + 1: d/dx_k of a weighted term
    has weighted degree >= 1, so l >= weights[k].  So every slice at a level
    <= N is exact, they make up the powers cut to weighted degree <= N - i in
    row i, and they read only the component terms of weighted degree < N.
    The weighted-degree-0 slices are what the callers read.

    A tower at `level` N holds every slice at a level <= N and is never
    changed.  `extended(M)` computes levels N + 1 .. M only: row by row, per
    (row, start), every product of a held slice with the band of component
    terms whose products land in the new levels.  From level -1, the empty
    tower, that is the truncated loop over every row; one new level forms
    only the new products.  `swapped(components)` keeps every held slice for
    a field that differs from this one only at weighted degree >= N, and
    raises `InternalCheckError` for any other field: a changed term of degree
    g < N on a coordinate start moves the slice (1, g) at level g + 1 <= N.

    The tower runs on Python ints.  With L the lcm of the components'
    coefficient denominators (1 for integer or zero components), L * D has
    integer coefficients and slice (i, d) is held as L^i times itself; a swap
    that grows L rescales the held slices once, and `row` divides by L^i as
    it reads.  A slice is a dict from packed keys to ints.  The key of x^e on
    m variables is sum_k e_k * 2^(b*k) + g * 2^(b*m), g its weighted degree:
    m balanced base-2^b digits, each in [-2^(b-1), 2^(b-1)), under a top
    digit that holds g.  Row i multiplies a start by i component terms, each
    with one exponent lowered by 1, so |e_k| <= max|start| + (MAX_ORDER + 1)
    * (max|component exponent| + 1) on every row a tower can hold, and b is
    the least width whose digits hold that bound.  Component k's terms are
    held with their key lowered by x_k and by weights[k] in the top digit, so
    a product is one add of keys, d/dx_k reads e_k with one shift and one
    mask, and a new term is filed under its slice with one shift of the key.
    A swap whose components need wider digits repacks the held slices once;
    apart from that, only `row` unpacks keys, and only those of the slices it
    returns.  No term kernel of `_kernel_py` runs on the tower.
    """

    __slots__ = ("components", "weights", "starts", "level",
                 "_scale", "_keys", "_grade", "_shifts", "_bands", "_rows")

    def __init__(self, components: Sequence[Poly], weights: Sequence[int],
                 starts: Optional[Sequence[Tuple[int, ...]]] = None):
        m = len(components)
        if starts is None:
            starts = [tuple(int(j == k) for j in range(m)) for k in range(m)]
        self.weights = tuple(weights)
        self.starts = tuple(starts)
        self.level = -1
        self._grade = _grader(self.weights)
        self._rows: Tuple[Tuple[dict, ...], ...] = ()
        self._use(components, lcm(*(c.denominator for comp in components
                                    for c in comp.terms.values())),
                  _digit_bits(self.starts, components))

    def _use(self, components: Sequence[Poly], scale: int, bits: int) -> None:
        # _shifts[s][k]: scale * the terms of components[k] whose products land
        # s levels above their source slice, as (key of x^e / x_k, coefficient)
        self.components = tuple(components)
        self._scale = scale
        self._keys = keys = _keys(bits, self.weights)
        self._shifts: dict = {}
        for k, (comp, w, place) in enumerate(zip(self.components, self.weights,
                                                 keys.places)):
            for e, c in comp.terms.items():
                s = self._grade(e) + 1 - w
                if s not in self._shifts:
                    self._shifts[s] = [[] for _ in self.weights]
                self._shifts[s][k].append((keys.pack(e) - place,
                                           c.numerator * (scale // c.denominator)))
        self._bands: dict = {}

    def _band(self, lo: int, hi: int) -> Optional[tuple]:
        """(b * k, terms) per component k with a term whose shift lies in lo .. hi,
        or None when no component has one."""
        key = (lo, hi)
        if key not in self._bands:
            by_k: list = [[] for _ in self.weights]
            for s, parts in self._shifts.items():
                if lo <= s <= hi:
                    for terms, part in zip(by_k, parts):
                        terms += part
            self._bands[key] = tuple(
                (shift, terms) for shift, terms in zip(self._keys.shifts, by_k)
                if terms) or None
        return self._bands[key]

    def _copy(self) -> "JetTower":
        tower = object.__new__(JetTower)
        for name in self.__slots__:
            setattr(tower, name, getattr(self, name))
        return tower

    def extended(self, upto: int) -> "JetTower":
        """This tower with every level <= upto; only the new levels are computed."""
        if upto < 0:
            raise OrderError("order must be >= 0")
        check_limit("jet order", upto, "MAX_ORDER", MAX_ORDER)
        lo = self.level + 1
        if upto < lo:
            return self
        grade, keys = self._grade, self._keys
        off, top = keys.off, keys.top
        skip_constants = all(self.weights)
        held = [[dict(slices) for slices in row] for row in self._rows]
        rows = held + [[{} for _ in self.starts] for _ in range(upto + 1 - len(held))]
        for s, e in enumerate(self.starts):
            if lo <= grade(e) <= upto:
                rows[0][s][grade(e)] = {keys.pack(e): 1}
        # bands[l]: the terms that take a slice at level l into the new levels
        bands = [self._band(max(lo - l, 0), upto - l) for l in range(upto + 1)]
        for i in range(1, upto + 1):
            for source, target in zip(rows[i - 1], rows[i]):
                out: dict = {}
                for d, part in source.items():
                    band = bands[i - 1 + d]
                    # with every variable graded a degree-0 part is a constant
                    if band is None or not d and skip_constants:
                        continue
                    _derive_into(out, band, part, keys)
                for key, c in out.items():
                    if c:
                        d = (key + off) >> top
                        part = target.get(d)
                        if part is None:
                            target[d] = {key: c}
                        else:
                            part[key] = c
        tower = self._copy()
        tower.level = upto
        tower._rows = tuple(tuple(row) for row in rows)
        return tower

    def swapped(self, components: Sequence[Poly]) -> "JetTower":
        """The held levels under a field that differs only at weighted degree >= level."""
        grade, level = self._grade, self.level
        for old, new in zip(self.components, components):
            if ({e: c for e, c in old.terms.items() if grade(e) < level}
                    != {e: c for e, c in new.terms.items() if grade(e) < level}):
                raise InternalCheckError(
                    "carried jet sections differ from a recomputation")
        scale = lcm(self._scale, *(c.denominator for comp in components
                                   for c in comp.terms.values()))
        bits = self._keys.bits
        tower = self._copy()
        tower._use(components, scale, max(bits, _digit_bits(self.starts, components)))
        grow = scale // self._scale
        if tower._keys.bits != bits:
            pack, unpack = tower._keys.pack, self._keys.unpack
            tower._rows = tuple(
                tuple({d: {pack(unpack(key)): c * grow ** i for key, c in part.items()}
                       for d, part in slices.items()} for slices in row)
                for i, row in enumerate(self._rows))
        elif grow != 1:
            tower._rows = tuple(
                tuple({d: {key: c * grow ** i for key, c in part.items()}
                       for d, part in slices.items()} for slices in row)
                for i, row in enumerate(self._rows))
        return tower

    def row(self, i: int, degree: Optional[int] = None) -> Tuple[Poly, ...]:
        """Row i per start, as Fractions: its slice of weighted degree `degree`,
        or with None every held slice (D^i x^s cut to weighted degree <= level - i)."""
        unpack = self._keys.unpack
        denominator = self._scale ** i
        out = []
        for slices in self._rows[i]:
            parts = slices.values() if degree is None else [slices.get(degree, {})]
            out.append(Poly._raw(len(self.weights),
                                 {unpack(key): Fraction(c, denominator)
                                  for part in parts for key, c in part.items()}))
        return tuple(out)


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
    in `JetTower` (x^e has weighted degree sum_k weights[k] * e_k, each
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
    The term kernels of `_kernel_py` are generic over int and Fraction, so the
    loop calls them on ints.  The bracket shares no code with `JetTower`, so it
    can certify the jet engine.
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
