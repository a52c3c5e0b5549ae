"""Acceptance suite: one test per criterion, every tolerance exact (zero).

Each test prints a single PASS line so a -s / -v run reads as a checklist.  The
randomized suites use a fixed seed; runtime-limited criteria assert their budget.
"""

import random
import time
from fractions import Fraction

from jetlift.algebra import Poly
from jetlift.cech import Cochain1, Obstruction, PresentedSheaf, solve_coboundary, uni, uni_x
from jetlift.flows import (flow_jet, flow_series_picard, jet_defect,
                           stratum_invariance_check, verify_dj)
from jetlift.frobenius import (CounterexamplePoint, Distribution,
                               InvolutivityCertificate, involutivity_certificate)
from jetlift.jets import jet_from_series
from jetlift.lifting import lift_to_order
from jetlift.scenario import parse_scenario
from jetlift.vectorfields import (TimeClass, VectorField, extend_constant_flow,
                                  iterated_bracket, time_component_class)

from test_flows import perturbation_in_maximal_ideal_power
from test_lifting import rows_up_to


def _random_poly(rng, num_vars, max_degree, max_terms):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_degree) for _ in range(num_vars))
        if sum(exps) > max_degree:
            continue
        terms[exps] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly(num_vars, terms)


def _random_field(rng, num_vars, max_degree, max_terms=2):
    return VectorField([_random_poly(rng, num_vars, max_degree, max_terms)
                        for _ in range(num_vars)])


def test_acceptance_1_defect_identity_suite():
    """200 randomized cases of the three-way defect identity, all exact."""
    rng = random.Random(1729)
    started = time.perf_counter()
    combos = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3, 4)]
    cases = 0
    while cases < 200:
        m, n = combos[cases % len(combos)]
        point = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                      for _ in range(m))
        d1 = _random_field(rng, m, max_degree=3)
        delta = perturbation_in_maximal_ideal_power(rng, m, point, n)
        d2 = d1 + delta
        report = verify_dj(d1, d2, point, n)  # precondition checked inside
        assert report.agree, (m, n, point)
        cases += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1: PASS - 200 defect-identity cases agree exactly "
          f"({elapsed:.1f}s)")


def test_acceptance_2_picard_oracle_equivalence():
    """100 randomized fields: derivation-power jets equal rescaled Picard series."""
    rng = random.Random(271828)
    for _ in range(100):
        m = rng.choice([1, 2, 3])
        order = rng.randint(0, 8)
        field = _random_field(rng, m, max_degree=2)
        point = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                      for _ in range(m))
        series = flow_series_picard(field, point, order)
        assert jet_from_series(series) == flow_jet(field, point, order)
    print("\nACCEPTANCE 2: PASS - 100 Picard-oracle equivalences, exact")


def test_acceptance_3_worked_defects():
    """The two pinned defect values."""
    one, zero = Poly.one(2), Poly.zero(2)
    x = Poly.variable(2, 0)
    d1 = VectorField([one, zero])
    assert jet_defect(d1, VectorField([one, x]), [0, 0], 1).vec == (0, 1)
    assert jet_defect(d1, VectorField([one, x ** 2]), [0, 0], 2).vec == (0, 2)
    print("\nACCEPTANCE 3: PASS - worked defects (0,1) and (0,2), exact")


def test_acceptance_4_stratum_invariance():
    """Involutive cases stay in their stratum to order 10; the witness does not."""
    z3, one3 = Poly.zero(3), Poly.one(3)
    plane = Distribution(3, [VectorField([one3, z3, z3]),
                             VectorField([z3, z3, Poly.variable(3, 1)])])
    report = stratum_invariance_check(plane, [one3, z3], [0, 0, 0], 10)
    assert report.invariant and report.rank == 1

    x = Poly.variable(2, 0)
    z2 = Poly.zero(2)
    radial = Distribution(2, [VectorField([x, z2]), VectorField([z2, x])])
    report = stratum_invariance_check(radial, [x, z2], [0, 1], 10)
    assert report.invariant and report.rank == 0

    witness = Distribution(2, [VectorField([Poly.one(2), z2]),
                               VectorField([z2, x])])
    report = stratum_invariance_check(witness, [Poly.one(2), z2], [0, 0], 10)
    assert not report.invariant and report.rank == 1
    print("\nACCEPTANCE 4: PASS - stratum invariance to order 10; "
          "non-involutive witness violates")


def test_acceptance_5_involutivity_verdicts():
    """Certificate, refutation, and zero-coefficient certificate."""
    x = Poly.variable(2, 0)
    z2, one2 = Poly.zero(2), Poly.one(2)

    radial = Distribution(2, [VectorField([x, z2]), VectorField([z2, x])])
    verdict = involutivity_certificate(radial, 0)
    assert isinstance(verdict, InvolutivityCertificate)
    assert verdict.pairs[(0, 1)] == (z2, one2)          # [D1,D2] = D2

    witness = Distribution(2, [VectorField([one2, z2]), VectorField([z2, x])])
    verdict = involutivity_certificate(witness, 3)
    assert isinstance(verdict, CounterexamplePoint)
    assert verdict.point == (0, 0)

    coords = Distribution(2, [VectorField([one2, z2]), VectorField([z2, one2])])
    verdict = involutivity_certificate(coords, 0)
    assert isinstance(verdict, InvolutivityCertificate)
    assert verdict.pairs[(0, 1)] == (z2, z2)
    print("\nACCEPTANCE 5: PASS - involutivity certified/refuted/zero as pinned")


def test_acceptance_6_cech_linear_algebra():
    """Canonical splitting on the trivial twist; exact 1-dim cokernel on degree -2."""
    trivial = PresentedSheaf.line_bundle(Poly.one(1))
    nu = Cochain1.from_nu01(trivial, [uni({1: 1, 0: 1, -1: 1})], (-4, 4))
    lam = solve_coboundary(nu)
    assert lam.chart0[0] == uni({1: 1, 0: 1})       # lambda_0 = z + 1
    assert lam.chart1[0] == uni({1: -1})            # lambda_1 = -w

    twisted = PresentedSheaf.line_bundle(uni_x(-2))
    result = solve_coboundary(Cochain1.from_nu01(twisted, [uni_x(-1)], (-4, 4)))
    assert isinstance(result, Obstruction)
    assert result.cokernel_dim == 1
    assert result.residual == (uni_x(-1),)
    print("\nACCEPTANCE 6: PASS - Laurent splitting and the 1-dimensional "
          "obstruction, exact")


FLAGSHIP = """
[y]        charts z w ; transition w = 1/z
[x]        vars x ; charts 2 ; transition x -> 1/x ; jacobian -x^-2
[f]        chart0: x = z ; chart1: x = w
[sheaf]    gen chart0: x ; gen chart1: -x
[sigma]    chart0: 1 ; chart1: 1
[window]   -8 8
[order]    4
"""


def test_acceptance_7_end_to_end_lifting():
    """Flagship to order 4, unperturbed and perturbed, every check exact."""
    started = time.perf_counter()
    z = uni_x(1)
    zero1, one1 = Poly.zero(1), Poly.one(1)

    plain = lift_to_order(parse_scenario(FLAGSHIP), 4)
    assert tuple(plain.state.sections[0][0]) == (z, z, z, z, z)
    assert tuple(plain.state.sections[0][1]) == (zero1, one1, zero1, zero1, zero1)

    perturbed_text = FLAGSHIP.replace(
        "[window]", "[perturb]  chart1: t * x^2\n[window]")
    perturbed = lift_to_order(parse_scenario(perturbed_text), 4)
    first = perturbed.steps[0]
    assert first.nu.nu01 == (uni({1: -1}),)          # coefficient -z
    assert first.lam.chart0 == (uni({1: -1}),)       # lambda_0 = -z * gen
    assert first.lam.chart1 == (zero1,)              # lambda_1 = 0
    # every step's defect vanishes after correction (steps 2 and 3 need none)
    assert [s.nu.is_zero() for s in perturbed.steps] == [False, True, True]
    # tower property at every step, re-derived from scratch
    for n in (1, 2, 3):
        partial = lift_to_order(parse_scenario(perturbed_text), n)
        for chart in (0, 1):
            assert rows_up_to(perturbed.state.sections[chart], n) == \
                partial.state.sections[chart]
    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"criterion 7 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 7: PASS - flagship lift, defect -z, splitting "
          f"(-z, 0), tower exact ({elapsed:.1f}s)")


def test_acceptance_8_constant_flow_closure():
    """100 random constant-flow pairs: iterated brackets to order 5 lose d/dt."""
    rng = random.Random(314159)
    for _ in range(100):
        m = rng.choice([1, 2])
        comps1 = [_random_poly(rng, m + 1, 2, 2) for _ in range(m)]
        comps2 = [_random_poly(rng, m + 1, 2, 2) for _ in range(m)]
        e1 = extend_constant_flow(VectorField(comps1 + [Poly.zero(m + 1)]))
        e2 = extend_constant_flow(VectorField(comps2 + [Poly.zero(m + 1)]))
        for n in range(2, 6):
            assert time_component_class(iterated_bracket(e1, e2, n)) is \
                TimeClass.TIME_DEPENDENT_IN_F
    print("\nACCEPTANCE 8: PASS - 100 constant-flow pairs, brackets to order 5 "
          "time dependent")
