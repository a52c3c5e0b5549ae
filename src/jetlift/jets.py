"""Jet coordinates, tower projections, and the affine structure of the top order.

A jet of order n in dimension m is the tuple (x_0, ..., x_n) of derivative
coordinates of a curve germ: x_i = gamma^(i)(0).  The projection to a lower order
drops top coordinates; two jets of order n+1 with equal order-n parts differ by a
tangent vector at the shared basepoint, and that vector acts back by translation of
the top coordinate only.
"""

from __future__ import annotations

from math import factorial
from typing import Sequence

from .algebra import FrozenValue, Scalar, TruncSeries, as_fraction, exact_rows
from .errors import DimensionError, PreconditionError

__all__ = [
    "Jet",
    "TangentVector",
    "jet_project",
    "jet_difference",
    "jet_translate",
    "jet_to_series",
    "jet_from_series",
    "render_vector",
]


def render_vector(vec: Sequence[Scalar]) -> str:
    """A coordinate vector as the engine prints it: (c0,c1,...)."""
    return "(" + ",".join(str(c) for c in vec) + ")"


class Jet(FrozenValue):
    """Derivative coordinates (x_0, ..., x_n) of a curve germ; x_0 is the basepoint."""

    __slots__ = ("dim", "order", "coords")

    def __init__(self, dim: int, order: int, coords: Sequence[Sequence[Scalar]]):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coords",
                           exact_rows(dim, order, coords, "coordinate"))

    def _key(self):
        return (self.dim, self.order, self.coords)

    @property
    def basepoint(self):
        return self.coords[0]

    def render(self) -> str:
        if self.dim == 1:
            return render_vector(row[0] for row in self.coords)
        return render_vector(map(render_vector, self.coords))

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Jet(dim={self.dim}, order={self.order}, {self.render()})"


class TangentVector(FrozenValue):
    """A vector attached to a basepoint (difference of two jets at top order)."""

    __slots__ = ("basepoint", "vec")

    def __init__(self, basepoint: Sequence[Scalar], vec: Sequence[Scalar]):
        bp = tuple(as_fraction(c) for c in basepoint)
        v = tuple(as_fraction(c) for c in vec)
        if len(bp) != len(v):
            raise DimensionError("basepoint and vector dimensions disagree")
        object.__setattr__(self, "basepoint", bp)
        object.__setattr__(self, "vec", v)

    def _key(self):
        return (self.basepoint, self.vec)

    def __add__(self, other):
        if not isinstance(other, TangentVector):
            return NotImplemented
        if self.basepoint != other.basepoint:
            raise PreconditionError("tangent vectors at different basepoints")
        return TangentVector(self.basepoint,
                             tuple(a + b for a, b in zip(self.vec, other.vec)))

    def render(self) -> str:
        return render_vector(self.vec)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"TangentVector(at {self.basepoint}, vec={self.render()})"


def jet_project(j: Jet, order: int) -> Jet:
    """Drop coordinates above `order` (the tower projection)."""
    if not 0 <= order <= j.order:
        raise ValueError(f"target order {order} not in [0, {j.order}]")
    if order == j.order:
        return j
    return Jet(j.dim, order, j.coords[:order + 1])


def jet_difference(j1: Jet, j2: Jet) -> TangentVector:
    """Difference of two jets agreeing below top order: x_top(j1) - x_top(j2)."""
    if j1.dim != j2.dim:
        raise DimensionError("jets have different dimensions")
    if j1.order != j2.order:
        raise DimensionError("jets have different orders")
    if j1.order < 1:
        raise ValueError("difference needs order >= 1")
    for i in range(j1.order):
        if j1.coords[i] != j2.coords[i]:
            raise PreconditionError(
                f"jets differ at order {i}: {j1.coords[i]} != {j2.coords[i]}")
    top1, top2 = j1.coords[-1], j2.coords[-1]
    return TangentVector(j1.basepoint, tuple(a - b for a, b in zip(top1, top2)))


def jet_translate(j: Jet, v: TangentVector) -> Jet:
    """Translate the top coordinate by v; lower orders are untouched."""
    if j.order < 1:
        raise ValueError("translation needs order >= 1")
    if len(v.vec) != j.dim:
        raise DimensionError("vector dimension does not match jet dimension")
    if v.basepoint != j.basepoint:
        raise PreconditionError(
            f"vector based at {v.basepoint}, jet based at {j.basepoint}")
    new_top = tuple(a + b for a, b in zip(j.coords[-1], v.vec))
    return Jet(j.dim, j.order, j.coords[:-1] + (new_top,))


def jet_to_series(j: Jet) -> TruncSeries:
    """Taylor coefficients v_i = x_i / i!."""
    rows = [tuple(c / factorial(i) for c in row)
            for i, row in enumerate(j.coords)]
    return TruncSeries(j.dim, j.order, rows)


def jet_from_series(s: TruncSeries) -> Jet:
    """Derivative coordinates x_i = i! * v_i."""
    rows = [tuple(c * factorial(i) for c in row)
            for i, row in enumerate(s.coeffs)]
    return Jet(s.dim, s.order, rows)
