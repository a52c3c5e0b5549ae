"""Exact sparse multivariate polynomials and truncated power series over Q.

Everything in the engine reduces to arithmetic in this module.  Coefficients are
`fractions.Fraction` throughout; floats are rejected so that no rounding can creep
into an identity check.  Exponents are non-negative integers unless a value is built
through a `laurent=True` constructor, in which case negative exponents are allowed
(used by the two-chart Čech machinery).  Equality is purely structural: same variable
count, same term dict.

The truncated-series helpers work over any exact commutative ring that supports
+ and *.  `series_compose`, the one composer of polynomials with truncated
series, takes non-negative exponents and the truncated product as an argument:
`Poly.compose_series` runs it on Fractions with the Cauchy product `series_mul`,
and the Picard oracle in `flows` on ints with the divided-power product.  The
chart crossing of jet sections is read in `cech` and run by the jet engine in
`lifting`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Mapping, Sequence, Tuple, Union

from . import _kernel_py
from .errors import DimensionError

Scalar = Union[int, Fraction]

__all__ = [
    "Poly",
    "TruncSeries",
    "as_fraction",
    "series_mul",
    "series_compose",
    "default_names",
]


def as_fraction(value) -> Fraction:
    """Coerce an int or Fraction; anything else (notably float) is rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact rational expected, got {type(value).__name__}")


def default_names(num_vars: int) -> Tuple[str, ...]:
    if num_vars <= 3:
        return ("x", "y", "z")[:num_vars]
    return tuple(f"x{i}" for i in range(num_vars))


def _grevkey(item):
    e = item[0]
    return (sum(e), e)


class Poly:
    """Sparse polynomial in `num_vars` variables with Fraction coefficients.

    `terms` maps exponent tuples to nonzero coefficients.  Instances are immutable
    by convention; all operations return new objects.
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Mapping[Tuple[int, ...], Scalar] = (),
                 *, laurent: bool = False):
        if num_vars < 0:
            raise ValueError("num_vars must be >= 0")
        canonical = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for e, c in items:
            e = tuple(e)
            if len(e) != num_vars:
                raise DimensionError(
                    f"exponent tuple {e} has length {len(e)}, expected {num_vars}")
            for k in e:
                if not isinstance(k, int):
                    raise TypeError(f"exponents must be ints, got {k!r}")
                if k < 0 and not laurent:
                    raise ValueError(
                        f"negative exponent {k} requires a Laurent constructor")
            c = as_fraction(c)
            if c:
                s = canonical.get(e)
                if s is None:
                    canonical[e] = c
                else:
                    s = s + c
                    if s:
                        canonical[e] = s
                    else:
                        del canonical[e]
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "terms", canonical)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def _raw(cls, num_vars: int, terms: dict) -> "Poly":
        """Internal fast path: `terms` must already be canonical."""
        self = object.__new__(cls)
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "terms", terms)
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "Poly":
        return cls._raw(num_vars, {})

    @classmethod
    def constant(cls, num_vars: int, value: Scalar) -> "Poly":
        c = as_fraction(value)
        if not c:
            return cls.zero(num_vars)
        return cls._raw(num_vars, {(0,) * num_vars: c})

    @classmethod
    def one(cls, num_vars: int) -> "Poly":
        return cls.constant(num_vars, 1)

    @classmethod
    def variable(cls, num_vars: int, k: int) -> "Poly":
        if not 0 <= k < num_vars:
            raise IndexError(f"variable index {k} out of range for {num_vars} vars")
        e = tuple(1 if i == k else 0 for i in range(num_vars))
        return cls._raw(num_vars, {e: Fraction(1)})

    @classmethod
    def monomial(cls, num_vars: int, exponents: Sequence[int],
                 coefficient: Scalar = 1, *, laurent: bool = False) -> "Poly":
        return cls(num_vars, {tuple(exponents): coefficient}, laurent=laurent)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_polynomial(self) -> bool:
        """True when no exponent is negative."""
        return all(min(e, default=0) >= 0 for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.num_vars, Fraction(0))

    def as_monomial(self):
        """Return (exponents, coefficient) if this is a single term, else None."""
        if len(self.terms) != 1:
            return None
        ((e, c),) = self.terms.items()
        return e, c

    def sorted_terms(self):
        """Terms in descending graded-lexicographic order (canonical output order)."""
        return sorted(self.terms.items(), key=_grevkey, reverse=True)

    # -- arithmetic ---------------------------------------------------------

    def _check_same_vars(self, other: "Poly"):
        if self.num_vars != other.num_vars:
            raise DimensionError(
                f"operands have {self.num_vars} and {other.num_vars} variables")

    def __add__(self, other):
        if isinstance(other, Poly):
            self._check_same_vars(other)
            return Poly._raw(self.num_vars, _kernel_py.add_terms(self.terms, other.terms))
        if isinstance(other, (int, Fraction)):
            return self + Poly.constant(self.num_vars, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw(self.num_vars, _kernel_py.neg_terms(self.terms))

    def __sub__(self, other):
        if isinstance(other, Poly):
            self._check_same_vars(other)
            return Poly._raw(self.num_vars, _kernel_py.add_terms(
                self.terms, _kernel_py.neg_terms(other.terms)))
        if isinstance(other, (int, Fraction)):
            return self + Poly.constant(self.num_vars, -as_fraction(other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check_same_vars(other)
            return Poly._raw(self.num_vars, _kernel_py.mul_terms(self.terms, other.terms))
        if isinstance(other, (int, Fraction)):
            return Poly._raw(self.num_vars,
                             _kernel_py.scale_terms(self.terms, as_fraction(other)))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative ints")
        result = Poly.one(self.num_vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.num_vars == other.num_vars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(self.num_vars, other)
        return NotImplemented

    def __hash__(self):
        # a constant (or zero) polynomial equals its scalar, so it hashes like it
        if not self.terms:
            return hash(0)
        if len(self.terms) == 1:
            c = self.terms.get((0,) * self.num_vars)
            if c is not None:
                return hash(c)
        return hash((self.num_vars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- calculus -----------------------------------------------------------

    def partial(self, k: int) -> "Poly":
        """Exact partial derivative with respect to variable k."""
        if not 0 <= k < self.num_vars:
            raise IndexError(f"variable index {k} out of range for {self.num_vars} vars")
        return Poly._raw(self.num_vars, _kernel_py.partial_terms(self.terms, k))

    def eval(self, point: Sequence[Scalar]) -> Fraction:
        """Exact value at a rational point (negative exponents need nonzero base)."""
        if len(point) != self.num_vars:
            raise DimensionError(
                f"point has {len(point)} coordinates, expected {self.num_vars}")
        pt = [as_fraction(c) for c in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for base, exp in zip(pt, e):
                if exp:
                    v *= base ** exp
            total += v
        return total

    def compose_series(self, gamma: "TruncSeries") -> "TruncSeries":
        """Truncation of self(gamma(t)) to gamma.order; requires non-negative exponents."""
        if gamma.dim != self.num_vars:
            raise DimensionError(
                f"series has dim {gamma.dim}, polynomial has {self.num_vars} variables")
        series = [gamma.component(k) for k in range(self.num_vars)]
        (acc,) = series_compose([self.terms], series, gamma.order, Fraction(0))
        return TruncSeries(1, gamma.order, [(v,) for v in acc])

    def reindex(self, num_vars: int, positions: Sequence[int]) -> "Poly":
        """Re-read self among `num_vars` variables: variable j becomes positions[j]."""
        positions = tuple(positions)
        if (len(positions) != self.num_vars or len(set(positions)) != len(positions)
                or not all(0 <= j < num_vars for j in positions)):
            raise DimensionError(
                f"positions {positions} do not place {self.num_vars} variables "
                f"among {num_vars}")
        terms = {}
        for e, c in self.terms.items():
            exps = [0] * num_vars
            for j, ej in zip(positions, e):
                exps[j] = ej
            terms[tuple(exps)] = c
        return Poly._raw(num_vars, terms)

    def substitute(self, values: Sequence["Poly"]) -> "Poly":
        """Substitute a polynomial (or Laurent monomial) for each variable.

        All entries must share a variable count; negative exponents of a variable are
        only allowed when the substituted value is an invertible monomial.  When
        every value is a single term, each term of self maps to one term: its
        exponents through the values' exponents, its coefficient times theirs.
        """
        if len(values) != self.num_vars:
            raise DimensionError(
                f"{len(values)} substitution values for {self.num_vars} variables")
        if not values:
            return Poly._raw(0, dict(self.terms))
        out_vars = values[0].num_vars
        for v in values:
            if v.num_vars != out_vars:
                raise DimensionError("substitution values disagree on variable count")
        monomials = [v.as_monomial() for v in values]
        if None not in monomials:
            return Poly._raw(out_vars, _substitute_monomials(self.terms, monomials))
        powers: dict = {}

        def power(k: int, e: int) -> "Poly":
            if e == 1:
                return values[k]
            p = powers.get((k, e))
            if p is None:
                if e >= 0:
                    p = values[k] ** e
                elif e == -1:
                    p = monomial_inverse(values[k])
                else:
                    p = power(k, -1) ** (-e)
                powers[k, e] = p
            return p

        acc = Poly.zero(out_vars)
        for e, c in self.terms.items():
            term = Poly.constant(out_vars, c)
            for k, ek in enumerate(e):
                if ek:
                    term = term * power(k, ek)
            acc = acc + term
        return acc

    # -- rendering ----------------------------------------------------------

    def render(self, names: Sequence[str] = None, compact: bool = False) -> str:
        if names is None:
            names = default_names(self.num_vars)
        if len(names) != self.num_vars:
            raise DimensionError("one name per variable required")
        if not self.terms:
            return "0"
        plus, minus_sep = ("+", "-") if compact else (" + ", " - ")
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, exp in zip(names, e):
                if exp == 0:
                    continue
                factors.append(name if exp == 1 else f"{name}^{exp}")
            mag = c if c > 0 else -c
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if c > 0 else ("-" + body))
            else:
                parts.append((plus if c > 0 else minus_sep) + body)
        return "".join(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Poly({self.num_vars}, {self.render()!r})"


def _substitute_monomials(terms, monomials) -> dict:
    """Terms of a substitution whose values are the single terms `monomials`.

    Equal exponents are accumulated as `add_terms` adds one term at a time, so
    the keys come out in the order of the general path of `Poly.substitute`.
    """
    out: dict = {}
    for e, c in terms.items():
        exps = None
        for ek, (ve, vc) in zip(e, monomials):
            if not ek:
                continue
            if ek == 1:
                c = c * vc
                shifted = ve
            else:
                c = c * vc ** ek
                shifted = [ek * x for x in ve]
            exps = shifted if exps is None else [a + b for a, b in zip(exps, shifted)]
        key = tuple(exps) if exps is not None else (0,) * len(monomials[0][0])
        prev = out.get(key)
        if prev is None:
            out[key] = c
        else:
            s = prev + c
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def monomial_inverse(p: Poly) -> Poly:
    """Inverse of a single-term polynomial, as a Laurent monomial."""
    mono = p.as_monomial()
    if mono is None:
        raise ValueError(f"not an invertible monomial: {p}")
    e, c = mono
    return Poly._raw(p.num_vars, {tuple(-x for x in e): Fraction(1) / c})


# -- generic truncated-series helpers ---------------------------------------
#
# Coefficient sequences are plain lists over any exact commutative ring that
# supports + and * (int, Fraction or Poly); all products truncate at `order`.

def series_mul(a: Sequence, b: Sequence, order: int, zero) -> list:
    out = [zero] * (order + 1)
    for i, ai in enumerate(a[:order + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[:order + 1 - i]):
            out[i + j] = out[i + j] + ai * bj
    return out


def series_compose(term_dicts: Sequence[Mapping[Tuple[int, ...], Scalar]],
                   series: Sequence[Sequence], order: int, zero,
                   mul=None) -> List[list]:
    """Truncations of g(series) to `order`, one for each term dict g.

    series[k] is the coefficient sequence substituted for variable k.  The
    powers of each series are shared by all the term dicts and built as far as
    an exponent needs them, by repeated products `mul(a, b, order, zero)`:
    `series_mul` unless another truncated product is given (looked up per call,
    so a replaced `series_mul` is used).  Every exponent must be non-negative.
    """
    mul = mul or series_mul
    powers = [[None, base] for base in series]   # powers[k][e] = series[k] ** e
    out = []
    for terms in term_dicts:
        acc = [zero] * (order + 1)
        for e, c in terms.items():
            term = None
            for k, ek in enumerate(e):
                if ek:
                    if ek < 0:
                        raise ValueError(
                            "series composition needs non-negative exponents")
                    table = powers[k]
                    while len(table) <= ek:
                        table.append(mul(table[-1], table[1], order, zero))
                    p = table[ek]
                    term = p if term is None else mul(term, p, order, zero)
            if term is None:
                acc[0] = acc[0] + c
                continue
            for j, v in enumerate(term):
                if v:
                    acc[j] = acc[j] + c * v
        out.append(acc)
    return out


class TruncSeries:
    """Truncated vector power series: coeffs[j] is the j-th Taylor coefficient in Q^dim."""

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim: int, order: int, coeffs: Iterable[Sequence[Scalar]]):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if order < 0:
            raise ValueError("order must be >= 0")
        rows = []
        for row in coeffs:
            row = tuple(as_fraction(c) for c in row)
            if len(row) != dim:
                raise DimensionError(f"coefficient vector {row} does not have dim {dim}")
            rows.append(row)
        if len(rows) != order + 1:
            raise DimensionError(
                f"{len(rows)} coefficient vectors for order {order} (need {order + 1})")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    @classmethod
    def constant(cls, point: Sequence[Scalar], order: int) -> "TruncSeries":
        dim = len(point)
        zero_row = (Fraction(0),) * dim
        return cls(dim, order, [tuple(as_fraction(c) for c in point)]
                   + [zero_row] * order)

    def component(self, k: int) -> List[Fraction]:
        return [row[k] for row in self.coeffs]

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.dim, self.order, self.coeffs) == (other.dim, other.order, other.coeffs)

    def __hash__(self):
        return hash((self.dim, self.order, self.coeffs))

    def __repr__(self):
        return f"TruncSeries(dim={self.dim}, order={self.order}, coeffs={self.coeffs})"


def poly_det(matrix: Sequence[Sequence[Poly]]) -> Poly:
    """Exact determinant of a square polynomial matrix (cofactor expansion)."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    rows = [list(r) for r in matrix]
    acc = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = rows[0][j] * poly_det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc
