"""Distributions, pointwise rank, stratification sampling, and involutivity certificates.

Involutivity is certified, not decided: for each generator pair we try to write the
bracket as a generator combination with polynomial coefficients up to a degree bound
(a linear problem over Q), and on failure we search a small rational grid for a point
where the bracket leaves the pointwise span — a definitive counterexample.  When
neither happens the verdict is an explicit "not found up to degree d".
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb, lcm
from operator import add
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .algebra import Frozen, Poly, Scalar, exact_point
from .errors import DimensionError, InternalCheckError, OrderError
from .jets import render_vector
from .limits import (MAX_CERTIFICATE_UNKNOWNS, MAX_GRID_POINTS, MAX_SEARCH_VARS,
                     check_limit)
from .vectorfields import VectorField, lie_bracket

__all__ = [
    "Distribution",
    "InvolutivityCertificate",
    "NotFoundUpTo",
    "CounterexamplePoint",
    "StratumReport",
    "rank_at",
    "involutivity_certificate",
    "strata_sample",
    "default_search_grid",
]


class Distribution(Frozen):
    """Finitely many polynomial vector fields presenting a subsheaf of the tangent sheaf."""

    __slots__ = ("num_vars", "gens")

    def __init__(self, num_vars: int, gens: Sequence[VectorField]):
        gens = tuple(gens)
        for g in gens:
            if g.num_vars != num_vars:
                raise DimensionError(
                    f"generator on {g.num_vars} variables in a {num_vars}-variable "
                    "distribution")
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "gens", gens)

    def __repr__(self):
        return f"Distribution(num_vars={self.num_vars}, gens={self.gens!r})"

    def matrix_at(self, point: Sequence[Scalar]) -> List[List[Fraction]]:
        """m x s matrix whose columns are the generator values at the point."""
        values = [g.value_at(point) for g in self.gens]
        return [[values[j][i] for j in range(len(self.gens))]
                for i in range(self.num_vars)]


def _integer_columns(fields: Sequence[VectorField]) -> List[Tuple[Tuple[int, ...], list]]:
    """Each field's terms scaled to integers, read at a point by `_point_matrix`.

    At a point (p_k / q), a field's column is multiplied by L * q^D * prod_k
    p_k^N_k: L is the lcm of its coefficient denominators, D its top total
    degree, and N_k its most negative exponent of x_k (0 for a polynomial).
    Each term c x^e then reads c L q^(D - |e|) prod_k p_k^(e_k + N_k), an
    integer.  Each field becomes (the k with N_k > 0, and per component its
    terms as (c L, D - |e|, the pairs (k, e_k + N_k) with a nonzero power)).
    """
    columns = []
    for field in fields:
        terms = [(i, e, c) for i, comp in enumerate(field.components)
                 for e, c in comp.terms.items()]
        den = lcm(*[c.denominator for _, _, c in terms])
        top = max([sum(e) for _, e, _ in terms], default=0)
        low = [max([0] + [-e[k] for _, e, _ in terms]) for k in range(field.num_vars)]
        comps: List[list] = [[] for _ in field.components]
        for i, e, c in terms:
            powers = tuple((k, n) for k, n in enumerate(map(add, e, low)) if n)
            comps[i].append((c.numerator * (den // c.denominator), top - sum(e), powers))
        columns.append((tuple(k for k, n in enumerate(low) if n), comps))
    return columns


def _point_matrix(columns, point: Sequence[Fraction]) -> List[List[int]]:
    """Integer matrix whose columns are nonzero multiples of the fields' values
    at the point, so that its rank is theirs over Q."""
    q = lcm(*[c.denominator for c in point])
    p = [c.numerator * (q // c.denominator) for c in point]
    matrix = [[0] * len(columns) for _ in point]
    for j, (lows, comps) in enumerate(columns):
        for k in lows:
            if not p[k]:
                raise ZeroDivisionError(
                    f"negative power of coordinate {k}, which is 0")
        for row, terms in zip(matrix, comps):
            v = 0
            for c, dq, powers in terms:
                for k, n in powers:
                    c *= p[k] ** n
                v += c * q ** dq
            row[j] = v
    return matrix


def rank_at(distribution: Distribution, point: Sequence[Scalar]) -> int:
    """Rank over Q of the generators' values at a rational point."""
    pt = exact_point(point, distribution.num_vars, "distribution")
    return linalg.rank(_point_matrix(_integer_columns(distribution.gens), pt))


class InvolutivityCertificate(NamedTuple):
    """For each pair i<j, coefficients with [D_i, D_j] = sum_k c_k D_k (re-checked)."""
    degree_bound: int
    pairs: Dict[Tuple[int, int], Tuple[Poly, ...]]

    def verify(self, distribution: Distribution) -> bool:
        for (i, j), coeffs in self.pairs.items():
            bracket = lie_bracket(distribution.gens[i], distribution.gens[j])
            acc = VectorField.zero(distribution.num_vars)
            for c, g in zip(coeffs, distribution.gens):
                acc = acc + g.scale(c)
            if acc != bracket:
                return False
        return True


class NotFoundUpTo(NamedTuple):
    """Inconclusive verdict: no certificate with coefficients of degree <= bound."""
    degree_bound: int


class CounterexamplePoint(NamedTuple):
    """A point where some bracket leaves the pointwise generator span."""
    pair: Tuple[int, int]
    point: Tuple[Fraction, ...]
    rank_without: int
    rank_with: int


def _monomials_up_to(num_vars: int, degree: int):
    for exps in itertools.product(range(degree + 1), repeat=num_vars):
        if sum(exps) <= degree:
            yield exps


def _combination_solve(distribution: Distribution, target: VectorField,
                       degree_bound: int) -> Optional[Tuple[Poly, ...]]:
    """Solve target = sum_k c_k * gens[k] with deg(c_k) <= degree_bound, over Q."""
    m = distribution.num_vars
    coeffs = linalg.solve_combination(
        [[p.terms for p in g.components] for g in distribution.gens],
        [p.terms for p in target.components],
        list(_monomials_up_to(m, degree_bound)))
    if coeffs is None:
        return None
    return tuple(Poly(m, t) for t in coeffs)


def default_search_grid(num_vars: int) -> List[Tuple[Fraction, ...]]:
    """Deterministic counterexample grid: origin first, then growing coordinates.

    The grid is built once per `num_vars`; each call returns a fresh list.
    """
    check_limit("search grid variable count", num_vars, "MAX_SEARCH_VARS",
                MAX_SEARCH_VARS)
    return list(_search_grid(num_vars))


@functools.lru_cache(maxsize=None)
def _search_grid(num_vars: int) -> Tuple[Tuple[Fraction, ...], ...]:
    values = [Fraction(v) for v in (0, 1, -1, 2, -2)] + [Fraction(1, 2), Fraction(-1, 2)]
    points = list(itertools.product(values, repeat=num_vars))
    points.sort(key=lambda p: (sum(abs(c) for c in p), p))
    return tuple(points)


def involutivity_certificate(distribution: Distribution, degree_bound: int):
    """Certificate, definitive counterexample point, or an explicit inconclusive."""
    if degree_bound < 0:
        raise OrderError("degree bound must be >= 0")
    gens, m = distribution.gens, distribution.num_vars
    check_limit("certificate unknown count", len(gens) * comb(degree_bound + m, m),
                "MAX_CERTIFICATE_UNKNOWNS", MAX_CERTIFICATE_UNKNOWNS)
    pairs: Dict[Tuple[int, int], Tuple[Poly, ...]] = {}
    failed: Dict[Tuple[int, int], VectorField] = {}
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            bracket = lie_bracket(gens[i], gens[j])
            coeffs = _combination_solve(distribution, bracket, degree_bound)
            if coeffs is None:
                failed[(i, j)] = bracket
            else:
                pairs[(i, j)] = coeffs
    if not failed:
        cert = InvolutivityCertificate(degree_bound, pairs)
        if not cert.verify(distribution):
            raise InternalCheckError("certificate re-expansion failed")  # unreachable
        return cert

    points = default_search_grid(m)
    columns = _integer_columns(gens)
    # a point's matrix and rank r0 do not depend on the pair: each is built
    # the first time a pair reaches that point
    bases: List[Optional[Tuple[List[List[int]], int]]] = [None] * len(points)
    for pair, bracket in failed.items():
        extra = _integer_columns([bracket])
        for n, pt in enumerate(points):
            if bases[n] is None:
                base = _point_matrix(columns, pt)
                bases[n] = (base, linalg.rank(base))
            base, r0 = bases[n]
            value = _point_matrix(extra, pt)
            r1 = linalg.rank([row + v for row, v in zip(base, value)])
            if r1 > r0:
                return CounterexamplePoint(pair, pt, r0, r1)
    return NotFoundUpTo(degree_bound)


class StratumReport(NamedTuple):
    """Grid sample of the rank stratification: each point appears under exactly one rank."""
    grid: Tuple[Tuple[Fraction, ...], ...]
    by_rank: Dict[int, Tuple[Tuple[Fraction, ...], ...]]

    def render(self) -> str:
        lines = []
        for r in sorted(self.by_rank):
            pts = " ".join(map(render_vector, self.by_rank[r]))
            lines.append(f"rank {r}: {pts}")
        return "\n".join(lines)


def strata_sample(distribution: Distribution,
                  grid: Sequence[Sequence[Scalar]]) -> StratumReport:
    """The rank at every grid point, grouped by rank; the generators' integer
    terms are built once for the whole grid."""
    points = [exact_point(p, distribution.num_vars, "distribution") for p in grid]
    if not points:
        raise ValueError("empty grid")
    columns = _integer_columns(distribution.gens)
    by_rank: Dict[int, List[Tuple[Fraction, ...]]] = {}
    for pt in points:
        rank = linalg.rank(_point_matrix(columns, pt))
        by_rank.setdefault(rank, []).append(pt)
    return StratumReport(tuple(points),
                         {r: tuple(pts) for r, pts in by_rank.items()})


def grid_points(ranges: Sequence[Tuple[Fraction, Fraction, Fraction]]):
    """Row-major rational grid from per-variable (start, stop, step) triples."""
    count = 1
    for start, stop, step in ranges:
        if step <= 0:
            raise ValueError("grid step must be positive")
        count *= max(0, (stop - start) // step + 1)
    check_limit("grid point count", count, "MAX_GRID_POINTS", MAX_GRID_POINTS)
    axes = []
    for start, stop, step in ranges:
        axis = []
        v = start
        while v <= stop:
            axis.append(v)
            v = v + step
        axes.append(axis)
    return [tuple(p) for p in itertools.product(*axes)]
