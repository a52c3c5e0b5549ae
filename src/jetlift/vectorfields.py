"""Polynomial vector fields as derivations.

A field D = sum a_k d/dx_k acts on functions by Df = sum a_k df/dx_k.  Brackets are
computed on components, with the derivation identity kept as a cross-check in the
test suite rather than as the definition.  Fields on m+1 variables whose last
variable plays the role of time are classified by their time component: identically 0
("time dependent" sections of the spatial subsheaf), identically 1 ("constant flow in
time"), or neither.  The truncated powers of a constant-flow field
D = d/dt + A, the jet engine of the curve in `lifting`, are held by a
`JetTower`, graded by t alone: one slice per row and t-degree, on integer
coefficients and integer keys packed from the space exponents, computed one
level at a time by a product loop of its own; `flows.flow_jet` has an engine
of its own at a point.
`apply_derivation` and `iterated_bracket` run the term kernels on exponent
tuples and share no code with the tower, so they can certify it.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import itemgetter, mul
from typing import Optional, Sequence, Tuple

from . import _kernel_py
from .algebra import FrozenValue, Poly, Scalar, as_fraction
from .errors import (ClassificationError, DimensionError, InternalCheckError,
                     LiftError, OrderError)
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


class VectorField(FrozenValue):
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

    def _key(self):
        return self.components

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


def _digit_bits(starts: Sequence[Tuple[int, ...]], space: Sequence[Poly]) -> int:
    """The digit width b of a tower's keys: every space exponent of a row below
    MAX_ORDER + 1 is smaller in size than 2^(b-1), the balanced digit's bound.
    t-exponents are not in the keys, so they never widen the digits."""
    start = max((abs(x) for e in starts for x in e[:-1]), default=0)
    comp = max((abs(x) for c in space for e in c.terms for x in e[:-1]), default=0)
    return (start + (MAX_ORDER + 1) * (comp + 1)).bit_length() + 1


class _Keys:
    """Packed keys of digit width b on q variables.

    The key of x^e is sum_k e_k * 2^(b*k): q balanced base-2^b digits, digit
    k holding e_k in [-2^(b-1), 2^(b-1)).  Adding `off` makes each digit
    non-negative, e_k + half, so that one shift and one mask read it.
    """

    __slots__ = ("bits", "places", "half", "mask", "off", "shifts")

    def __init__(self, bits: int, q: int):
        self.bits = bits
        self.shifts = tuple(range(0, bits * q, bits))
        self.places = tuple(1 << s for s in self.shifts)
        self.half = 1 << bits - 1
        self.mask = (1 << bits) - 1
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


class _Curve:
    """Packed keys of space exponents read along a curve, on ints.

    `values` are Laurent polynomials in one parameter, one per digit of the
    keys, in order.  With d the lcm of a value's coefficient denominators,
    the value is N / d with N on ints, and its power e is N^e over d^e for
    e >= 0, or, for a monomial n z^a / d and e < 0, d^-e z^(a e) over n^-e.
    `read(key)` is (terms, den): the product of those powers at the key's
    digits, sum u z^x over den for the (x, u) in terms.  Powers and products
    are cached.  A negative power of a value that is not a monomial raises
    `LiftError`.
    """

    __slots__ = ("values", "keys", "_powers", "_read")

    def __init__(self, values: Tuple[Poly, ...], keys: _Keys):
        if len(values) != len(keys.shifts):
            raise DimensionError("one curve value per space variable required")
        self.values = values
        self.keys = keys
        # per value: its terms (x, u) on ints, d, and its powers so far
        self._powers = []
        for value in values:
            if value.num_vars != 1:
                raise DimensionError("curve values must be Laurent polynomials "
                                     "in one parameter")
            d = lcm(*(c.denominator for c in value.terms.values()))
            terms = [(x, c.numerator * (d // c.denominator))
                     for (x,), c in value.terms.items()]
            self._powers.append((terms, d, {0: ([(0, 1)], 1), 1: (terms, d)}))
        self._read: dict = {}

    def _power(self, k: int, e: int) -> Tuple[list, int]:
        terms, d, cache = self._powers[k]
        got = cache.get(e)
        if got is not None:
            return got
        if len(terms) == 1:
            ((a, n),) = terms
            got = cache[e] = (([(a * e, n ** e)], d ** e) if e > 0
                              else ([(a * e, d ** -e)], n ** -e))
            return got
        if e < 0:
            raise LiftError("cannot restrict a negative power of a coordinate along a "
                            "curve component that is not a monomial")
        # a value of 0 or >= 2 terms holds every power 0 .. top
        top = max(cache)
        power, den = cache[top]
        for j in range(top + 1, e + 1):
            acc: dict = {}
            for x, u in power:
                for y, v in terms:
                    acc[x + y] = acc.get(x + y, 0) + u * v
            power, den = [(x, u) for x, u in acc.items() if u], den * d
            cache[j] = power, den
        return power, den

    def read(self, key: int) -> Tuple[list, int]:
        got = self._read.get(key)
        if got is None:
            keys = self.keys
            digits = key + keys.off
            terms, den = [(0, 1)], 1
            for k, s in enumerate(keys.shifts):
                power, d = self._power(k, (digits >> s & keys.mask) - keys.half)
                terms = [(x + y, u * v) for x, u in terms for y, v in power]
                den *= d
            got = self._read[key] = terms, den
        return got


def _time_band(part: dict, factor: int) -> dict:
    """The band of d/dt on a slice of t-degree d + 1: each term times
    factor = L * (d + 1), one scalar product per term, on the same keys."""
    return {key: c * factor for key, c in part.items()}


def _derive_into(out: dict, band, part: dict, keys: _Keys) -> None:
    """Add sum_k band_k * d(part)/dx_k to `out`, on packed keys; zero sums stay.

    `band` holds (b * k, terms) per space component k, each term's key that
    of x^e / x_k, so d/dx_k of x^e reads e_k with one shift and one mask, and
    a product is one add of keys.
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
    """Truncated powers of D = d/dt + sum_k space[k] d/dx_k, graded by t alone.

    The variables are q space coordinates x and then time t, and `space`
    holds D's q space components, polynomials on all q + 1 variables,
    Laurent in x only; the time component is 1.  Row i of start s is D^i of
    the monomial x^e t^g = starts[s] (by default the coordinates x_k and t).
    The t-degree-d part of row i is the slice (i, d), at level i + d.  d/dt
    lowers t-degree by 1, so the time band takes slice (i - 1, d + 1), at
    the same level, to slice (i, d).  A space term t^g x^e times d/dx_k of a
    slice at level l lands at level l + g + 1, its band's shift.  So every
    slice at a level <= N is exact, they make up the powers cut to t-degree
    <= N - i in row i, and they read only the space terms of t-degree < N.
    The t^0 slices are what the curve reads.

    A tower at `level` N holds every slice at a level <= N and is never
    changed.  `extended(M)` computes levels N + 1 .. M, one at a time, lowest
    row first: at level L, row 0 takes the starts of t-degree L, and the new
    slice (i, L - i) is first the time band of slice (i - 1, L - i + 1), just
    computed at this level, and then adds each band of shift s times d/dx_k
    of row i - 1's slice at level L - s, held already.  So each product is
    formed once, however the levels are reached.  `swapped(space)` keeps
    every held slice for a field that differs from this one only at t-degree
    >= N, and raises `InternalCheckError` for any other field: a changed term
    of t-degree g < N on a coordinate start moves the slice (1, g) at level
    g + 1 <= N.

    The tower runs on Python ints.  With L the lcm of the space components'
    coefficient denominators (1 for integer or zero components), L * D has
    integer coefficients and slice (i, d) is held as L^i times itself; a swap
    that grows L rescales the held slices once.  A slice maps the packed key
    of its terms' space exponents (`_Keys`) to ints; its t-exponent is d.
    Row i multiplies a start by i space terms, each with one exponent lowered
    by 1, so |e_k| <= max|start| + (MAX_ORDER + 1) * (max|space exponent| + 1)
    on every row a tower can hold, and the digits are the least width that
    holds that bound (`_digit_bits`).  Component k's terms are held with their
    key lowered by x_k, in one band per shift, so a product is one add of
    keys and d/dx_k reads e_k with one shift and one mask.  A swap whose
    space exponents need wider digits repacks the held slices once; a term's
    t-degree never does.  Two methods read keys, and only those of the slices
    they return: `row` unpacks them, and `along_curve` takes them to a curve
    on ints, through power tables that the tower and its copies cache.  No
    term kernel of `_kernel_py` runs on the tower.
    """

    __slots__ = ("space", "starts", "level",
                 "_scale", "_keys", "_bands", "_rows", "_curve")

    def __init__(self, space: Sequence[Poly],
                 starts: Optional[Sequence[Tuple[int, ...]]] = None):
        m = len(space) + 1
        if starts is None:
            starts = [tuple(int(j == k) for j in range(m)) for k in range(m)]
        self.starts = tuple(starts)
        self.level = -1
        self._rows: Tuple[Tuple[dict, ...], ...] = ()
        self._curve: Optional[_Curve] = None
        self._use(space, lcm(*(c.denominator for comp in space
                               for c in comp.terms.values())),
                  _digit_bits(self.starts, space))

    def _use(self, space: Sequence[Poly], scale: int, bits: int) -> None:
        # _bands[s]: (b * k, terms) per space component k with a term of
        # t-degree s - 1, each held as (key of x^e / x_k, scale * coefficient)
        self.space = tuple(space)
        self._scale = scale
        self._keys = keys = _keys(bits, len(self.space))
        by_shift: dict = {}
        for k, (comp, place) in enumerate(zip(self.space, keys.places)):
            for e, c in comp.terms.items():
                s = e[-1] + 1
                if s not in by_shift:
                    by_shift[s] = [[] for _ in self.space]
                by_shift[s][k].append((keys.pack(e[:-1]) - place,
                                       c.numerator * (scale // c.denominator)))
        self._bands = {s: tuple((shift, terms) for shift, terms
                                in zip(keys.shifts, parts) if terms)
                       for s, parts in by_shift.items()}

    def __repr__(self):
        return (f"JetTower(space={self.space!r}, starts={self.starts!r}, "
                f"level={self.level!r})")

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
        if upto <= self.level:
            return self
        keys, bands, scale = self._keys, self._bands, self._scale
        rows = [[dict(slices) for slices in row] for row in self._rows]
        for level in range(self.level + 1, upto + 1):
            rows.append([{} for _ in self.starts])
            for slices, e in zip(rows[0], self.starts):
                if e[-1] == level:
                    slices[level] = {keys.pack(e[:-1]): 1}
            for i in range(1, level + 1):
                d = level - i
                for source, target in zip(rows[i - 1], rows[i]):
                    part = source.get(d + 1)
                    out = _time_band(part, scale * (d + 1)) if part else {}
                    for s, band in bands.items():
                        part = source.get(d + 1 - s)
                        if part:
                            _derive_into(out, band, part, keys)
                    out = {key: c for key, c in out.items() if c}
                    if out:
                        target[d] = out
        tower = self._copy()
        tower.level = upto
        tower._rows = tuple(tuple(row) for row in rows)
        return tower

    def swapped(self, space: Sequence[Poly]) -> "JetTower":
        """The held levels under space components that differ only at t-degree >= level."""
        level = self.level

        def below(p):
            return {e: c for e, c in p.terms.items() if e[-1] < level}
        if any(below(old) != below(new) for old, new in zip(self.space, space)):
            raise InternalCheckError("carried jet sections differ from a recomputation")
        scale = lcm(self._scale, *(c.denominator for comp in space
                                   for c in comp.terms.values()))
        bits = self._keys.bits
        tower = self._copy()
        tower._use(space, scale, max(bits, _digit_bits(self.starts, space)))
        grow = scale // self._scale
        repack = tower._keys.bits != bits
        if repack or grow != 1:
            pack, unpack = tower._keys.pack, self._keys.unpack
            tower._rows = tuple(
                tuple({d: {pack(unpack(key)) if repack else key: c * grow ** i
                           for key, c in part.items()}
                       for d, part in slices.items()} for slices in row)
                for i, row in enumerate(self._rows))
        return tower

    def along_curve(self, i: int, values: Sequence[Poly]) -> Tuple[Poly, ...]:
        """Row i per start, its t^0 slice along a curve, as Fractions.

        `values` are Laurent polynomials in one parameter, one per space
        coordinate in order; the curve lies at t = 0.  Each packed key goes
        to the curve through integer power tables of the values (`_Curve`,
        cached per tower).  The row is summed on ints over one denominator,
        L^i times the lcm of its keys' denominators, as `Poly.eval` does;
        keys that land on one power of the parameter add up, and each output
        term is divided once.  A negative power along a value that is not a
        monomial raises `LiftError`.
        """
        values = tuple(values)
        curve = self._curve
        if curve is None or curve.keys is not self._keys or (
                curve.values is not values and curve.values != values):
            curve = self._curve = _Curve(values, self._keys)
        read = curve.read
        parts = []
        dens = []
        for slices in self._rows[i]:
            part = []
            for key, c in slices.get(0, {}).items():
                terms, den = read(key)
                part.append((c, terms, den))
                dens.append(den)
            parts.append(part)
        common = lcm(*dens)
        denominator = self._scale ** i * common
        out = []
        for part in parts:
            acc: dict = {}
            get = acc.get
            for c, terms, den in part:
                c *= common // den
                for x, u in terms:
                    acc[x] = get(x, 0) + c * u
            out.append(Poly._raw(1, {(x,): Fraction(u, denominator)
                                     for x, u in acc.items() if u}))
        return tuple(out)

    def row(self, i: int, degree: Optional[int] = None) -> Tuple[Poly, ...]:
        """Row i per start, as Fractions on (x, t): its slice of t-degree
        `degree`, or with None every held slice (D^i of the start cut to
        t-degree <= level - i); each unpacked key gains its slice's t-exponent."""
        unpack = self._keys.unpack
        denominator = self._scale ** i
        out = []
        for slices in self._rows[i]:
            parts = slices.items() if degree is None else [(degree, slices.get(degree, {}))]
            out.append(Poly._raw(len(self.space) + 1,
                                 {unpack(key) + (d,): Fraction(c, denominator)
                                  for d, part in parts for key, c in part.items()}))
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

    Without `weights` the result is the whole bracket.  With `weights`, one
    0 or 1 per variable, x^e has weighted degree sum_k weights[k] * e_k; the
    exponents of weight-1 variables must be non-negative, and those of
    weight-0 variables may be negative.  Then only the weighted-degree-0 part
    of the result is exact.  Level 1 is D2 and level j is
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
