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
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .algebra import Poly, Scalar, as_fraction
from .errors import DimensionError, InternalCheckError, OrderError
from .limits import MAX_GRID_POINTS, MAX_SEARCH_VARS, check_limit
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


class Distribution:
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

    def __setattr__(self, name, value):
        raise AttributeError("Distribution is immutable")

    def matrix_at(self, point: Sequence[Scalar]) -> List[List[Fraction]]:
        """m x s matrix whose columns are the generator values at the point."""
        values = [g.value_at(point) for g in self.gens]
        return [[values[j][i] for j in range(len(self.gens))]
                for i in range(self.num_vars)]


def rank_at(distribution: Distribution, point: Sequence[Scalar]) -> int:
    pt = tuple(as_fraction(c) for c in point)
    if len(pt) != distribution.num_vars:
        raise DimensionError(
            f"point has {len(pt)} coordinates, distribution has "
            f"{distribution.num_vars} variables")
    if not distribution.gens:
        return 0
    return linalg.rank(distribution.matrix_at(pt))


@dataclass(frozen=True)
class InvolutivityCertificate:
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


@dataclass(frozen=True)
class NotFoundUpTo:
    """Inconclusive verdict: no certificate with coefficients of degree <= bound."""
    degree_bound: int


@dataclass(frozen=True)
class CounterexamplePoint:
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
    gens = distribution.gens
    monos = list(_monomials_up_to(m, degree_bound))
    unknowns = [(k, e) for k in range(len(gens)) for e in monos]
    # each unknown contributes x^e * gens[k]; match coefficients of every monomial
    columns = [{(comp, tuple(a + b for a, b in zip(exp, e))): c
                for comp, p in enumerate(gens[k].components)
                for exp, c in p.terms.items()} for k, e in unknowns]
    rhs = {(comp, exp): c for comp, p in enumerate(target.components)
           for exp, c in p.terms.items()}
    solution, residual, _ = linalg.solve_with_residual(
        columns, rhs, sorted(set(rhs).union(*columns)))
    if residual:
        return None
    terms: List[dict] = [{} for _ in gens]
    for value, (k, e) in zip(solution, unknowns):
        if value:
            terms[k][e] = value
    return tuple(Poly(m, t) for t in terms)


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


def involutivity_certificate(distribution: Distribution, degree_bound: int,
                             grid: Sequence[Sequence[Scalar]] = None):
    """Certificate, definitive counterexample point, or an explicit inconclusive."""
    if degree_bound < 0:
        raise OrderError("degree bound must be >= 0")
    gens = distribution.gens
    pairs: Dict[Tuple[int, int], Tuple[Poly, ...]] = {}
    failed_pairs = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            bracket = lie_bracket(gens[i], gens[j])
            coeffs = _combination_solve(distribution, bracket, degree_bound)
            if coeffs is None:
                failed_pairs.append((i, j))
            else:
                pairs[(i, j)] = coeffs
    if not failed_pairs:
        cert = InvolutivityCertificate(degree_bound, pairs)
        if not cert.verify(distribution):
            raise InternalCheckError("certificate re-expansion failed")  # unreachable
        return cert

    points = grid if grid is not None else default_search_grid(distribution.num_vars)
    for i, j in failed_pairs:
        bracket = lie_bracket(gens[i], gens[j])
        for pt in points:
            pt = tuple(as_fraction(c) for c in pt)
            base = distribution.matrix_at(pt)
            r0 = linalg.rank(base)
            augmented = [row + [v] for row, v in zip(base, bracket.value_at(pt))]
            r1 = linalg.rank(augmented)
            if r1 > r0:
                return CounterexamplePoint((i, j), pt, r0, r1)
    return NotFoundUpTo(degree_bound)


@dataclass(frozen=True)
class StratumReport:
    """Grid sample of the rank stratification: each point appears under exactly one rank."""
    grid: Tuple[Tuple[Fraction, ...], ...]
    by_rank: Dict[int, Tuple[Tuple[Fraction, ...], ...]]

    def render(self) -> str:
        lines = []
        for r in sorted(self.by_rank):
            pts = " ".join("(" + ",".join(str(c) for c in p) + ")"
                           for p in self.by_rank[r])
            lines.append(f"rank {r}: {pts}")
        return "\n".join(lines)


def strata_sample(distribution: Distribution,
                  grid: Sequence[Sequence[Scalar]]) -> StratumReport:
    """Evaluate rank_at on every grid point and group by rank."""
    points = [tuple(as_fraction(c) for c in p) for p in grid]
    if not points:
        raise ValueError("empty grid")
    by_rank: Dict[int, List[Tuple[Fraction, ...]]] = {}
    for pt in points:
        by_rank.setdefault(rank_at(distribution, pt), []).append(pt)
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
