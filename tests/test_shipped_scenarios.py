"""The scenario files shipped in scenarios/ behave as their comments claim."""

import pathlib
from fractions import Fraction
from math import factorial

import pytest

from jetlift.algebra import Poly, series_mul
from jetlift.cech import uni, uni_x
from jetlift.errors import LiftObstructedError
from jetlift.lifting import lift_to_order
from jetlift.scenario import parse_scenario_file
from jetlift.vectorfields import VectorField

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def test_flagship():
    result = lift_to_order(parse_scenario_file(str(SCENARIOS / "flagship.scn")))
    z = uni_x(1)
    assert tuple(result.state.sections[0][0]) == (z, z, z, z, z)
    assert all(step.nu.is_zero() for step in result.steps)


def test_flagship_perturbed():
    result = lift_to_order(
        parse_scenario_file(str(SCENARIOS / "flagship_perturbed.scn")))
    assert result.steps[0].nu.nu01 == (uni_x(1) * -1,)
    assert [s.nu.is_zero() for s in result.steps] == [False, True, True]


def test_obstructed():
    with pytest.raises(LiftObstructedError) as err:
        lift_to_order(
            parse_scenario_file(str(SCENARIOS / "obstructed_deg_minus2.scn")))
    assert err.value.cokernel_dim == 1
    assert err.value.residual == (uni_x(-1),)


def test_graph_embedded():
    result = lift_to_order(
        parse_scenario_file(str(SCENARIOS / "graph_embedded.scn")))
    assert result.scenario.atlas.names == ("y", "x")
    assert [s.nu.is_zero() for s in result.steps] == [False, True]


def test_log_chart1_correction():
    result = lift_to_order(
        parse_scenario_file(str(SCENARIOS / "log_chart1_correction.scn")))
    order = result.state.order
    # chart 0 flows x' = x + t from (z, 0): x(t) = (z+1) e^t - t - 1
    z = uni_x(1)
    assert result.state.sections[0][0] == (z, z) + (z + 1,) * (order - 1)
    # chart 1 reads 1/x(t) at z = 1/w.  There x = g(t)/w with
    # g = 1 - h, h = -t - (1+w) * sum_{k>=2} t^k/k!, so 1/x = w * sum_j h^j.
    w, zero = uni_x(1), Poly.zero(1)
    h = [zero, -Poly.one(1)] + [(w + 1) * Fraction(-1, factorial(k))
                                for k in range(2, order + 1)]
    power, inverse = [Poly.one(1)] + [zero] * order, [zero] * (order + 1)
    for _ in range(order + 1):
        inverse = [a + b for a, b in zip(inverse, power)]
        power = series_mul(power, h, order, zero)
    section1 = tuple(w * c * factorial(k) for k, c in enumerate(inverse))
    assert section1[1] == -w
    assert result.state.sections[1][0] == section1
    # step 1 -> 2 corrects chart 1 alone, with E = x^2 d/dx and lambda1 = -w
    first = result.steps[0]
    assert first.corrections == (
        None, VectorField([Poly.monomial(2, (2, 0), 1), Poly.zero(2)]))
    assert first.lam.chart1 == (uni({1: -1}),)
    assert [s.nu.is_zero() for s in result.steps] == [False, True, True]


def test_rank4_frame():
    result = lift_to_order(parse_scenario_file(str(SCENARIOS / "rank4_frame.scn")))
    sheaf = result.scenario.sheaf
    # G = I + a^2 N with N the superdiagonal shift, so T = G^-1 = I - z^2 N +
    # z^4 N^2 - z^6 N^3: entry (k, j) is (-z^2)^(j - k) above the diagonal
    assert sheaf.transition == tuple(
        tuple(uni({2 * (j - k): (-1) ** (j - k)}) if j >= k else Poly.zero(1)
              for j in range(4)) for k in range(4))
    # D0 = d/dt + t*a^2 d/da and D1 = d/dt: D0^2 a = a^2 and D1^2 a = 0 at t = 0
    first = result.steps[0]
    zero = Poly.zero(1)
    assert first.nu.nu01 == (uni({2: 1}), zero, zero, zero)
    assert first.lam.chart0 == (uni({2: 1}), zero, zero, zero)
    assert first.lam.chart1 == (zero,) * 4
    a_squared = Poly.monomial(5, (2, 0, 0, 0, 0), 1)
    assert first.corrections == (
        VectorField([a_squared] + [Poly.zero(5)] * 4), None)
    assert [s.nu.is_zero() for s in result.steps] == [False, True]
    # the corrected chart-0 field is d/dt: a stays at z
    z = uni_x(1)
    assert result.state.sections[0][0] == (z,) + (zero,) * 3
