"""Pure and compiled kernels must agree exactly; both emit canonical Fractions.

The compiled kernel is built from the committed `_kernel_c.c` with gcc into a
temporary directory and loaded by path, so the parity tests run wherever gcc and
the Python headers are present, without a `.so` next to the package.  The pure
kernel is also ring-generic: int term dicts go in and int term dicts come out,
which is what the fraction-free jet engine runs on.
"""

import importlib.machinery
import importlib.util
import pathlib
import random
import shutil
import subprocess
import sys
import sysconfig
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jetlift._kernel_py as pure
from jetlift import algebra, vectorfields
from jetlift._backend import BACKEND
from jetlift.algebra import Poly
from jetlift.flows import flow_jet
from jetlift.lifting import lift_to_order
from jetlift.scenario import parse_scenario_file
from jetlift.vectorfields import VectorField

from strategies import exponent_tuples, fractions

NAME = "jetlift._kernel_c"
SOURCE = pathlib.Path(pure.__file__).with_name("_kernel_c.c")
SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("gcc is absent, so the compiled kernel cannot be built")
    include = sysconfig.get_paths()["include"]
    if not pathlib.Path(include, "Python.h").is_file():
        pytest.skip(f"Python.h is absent from {include}")
    target = tmp_path_factory.mktemp("kernel") / (
        "_kernel_c" + (sysconfig.get_config_var("EXT_SUFFIX") or ".so"))
    done = subprocess.run(
        [gcc, "-O2", "-shared", "-fPIC", f"-I{include}", str(SOURCE), "-o", str(target)],
        capture_output=True, text=True)
    if done.returncode:
        pytest.fail(f"gcc failed to build {SOURCE.name}:\n{done.stderr}")
    loader = importlib.machinery.ExtensionFileLoader(NAME, str(target))
    spec = importlib.util.spec_from_file_location(NAME, str(target), loader=loader)
    module = importlib.util.module_from_spec(spec)
    previous = sys.modules.get(NAME)
    spec.loader.exec_module(module)
    # the module's init registers itself under a free name; take that back
    if previous is None:
        sys.modules.pop(NAME, None)
    return module


def test_compiled_kernel_is_loaded_by_path_only(compiled):
    assert compiled.BACKEND == "c"
    assert sys.modules.get(NAME) is not compiled


def terms_dicts(num_vars, laurent=True, max_terms=6):
    # kernel inputs are canonical: no stored zero coefficients
    return st.dictionaries(
        exponent_tuples(num_vars, 4, laurent),
        fractions().filter(bool), max_size=max_terms)


@settings(max_examples=80)
@given(terms_dicts(3), terms_dicts(3))
def test_add_and_mul_agree(compiled, a, b):
    assert pure.add_terms(a, b) == compiled.add_terms(a, b)
    assert pure.mul_terms(a, b) == compiled.mul_terms(a, b)


@settings(max_examples=80)
@given(terms_dicts(2), fractions())
def test_scale_and_neg_agree(compiled, a, c):
    assert pure.scale_terms(a, c) == compiled.scale_terms(a, c)
    assert pure.neg_terms(a) == compiled.neg_terms(a)


@settings(max_examples=80)
@given(terms_dicts(3), st.integers(min_value=0, max_value=2))
def test_partial_agree(compiled, a, k):
    assert pure.partial_terms(a, k) == compiled.partial_terms(a, k)


@settings(max_examples=60)
@given(st.lists(terms_dicts(2, laurent=False, max_terms=4), min_size=2, max_size=2),
       terms_dicts(2, laurent=False))
def test_derive_agree(compiled, comps, a):
    assert pure.derive_terms(comps, a) == compiled.derive_terms(comps, a)


def test_compiled_output_is_canonical(compiled):
    rng = random.Random(11)
    for _ in range(50):
        a = {(rng.randint(-3, 3), rng.randint(0, 3)):
             Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
             for _ in range(rng.randint(1, 6))}
        b = {(rng.randint(-3, 3), rng.randint(0, 3)):
             Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
             for _ in range(rng.randint(1, 6))}
        out = compiled.mul_terms(a, b)
        for exps, c in out.items():
            assert type(c) is Fraction
            assert c != 0
            assert c.denominator > 0
            # gcd-reduced: rebuilding from the parts is the identity
            assert Fraction(c.numerator, c.denominator) == c
            assert isinstance(exps, tuple) and len(exps) == 2


def test_backend_reports_compiled_when_available():
    assert BACKEND in ("c", "python")


def int_terms_dicts(num_vars, max_terms=6):
    # small exponents and coefficients, so that products collide and sums cancel
    return st.dictionaries(
        exponent_tuples(num_vars, 2, laurent=True),
        st.integers(min_value=-3, max_value=3).filter(bool), max_size=max_terms)


def fraction_image(terms):
    return {e: Fraction(c) for e, c in terms.items()}


@settings(max_examples=200)
@given(int_terms_dicts(3), int_terms_dicts(3), st.integers(min_value=0, max_value=2),
       st.lists(int_terms_dicts(3, max_terms=4), min_size=3, max_size=3))
def test_pure_kernel_is_ring_generic(a, b, k, comps):
    fa, fb = fraction_image(a), fraction_image(b)
    cases = [
        (pure.add_terms(a, b), pure.add_terms(fa, fb)),
        (pure.mul_terms(a, b), pure.mul_terms(fa, fb)),
        (pure.partial_terms(a, k), pure.partial_terms(fa, k)),
        (pure.derive_terms(comps, a),
         pure.derive_terms([fraction_image(c) for c in comps], fa)),
    ]
    for out, reference in cases:
        assert all(type(c) is int and c for c in out.values())
        assert all(type(c) is Fraction for c in reference.values())
        assert fraction_image(out) == reference


def random_field(rng, m):
    return VectorField([
        Poly(m, {tuple(rng.randint(0, 2) for _ in range(m)):
                 Fraction(rng.randint(-5, 5), rng.randint(1, 9))
                 for _ in range(rng.randint(0, 3))})
        for _ in range(m)])


def test_jet_engine_with_compiled_kernel_active(compiled, monkeypatch):
    # the compiled kernel reads Fraction internals, so an int reaching it fails
    rng = random.Random(5)
    cases = []
    for _ in range(40):
        m = rng.randint(1, 3)
        point = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m))
        cases.append((random_field(rng, m), point, rng.randint(0, 7)))
    scenario = parse_scenario_file(str(SCENARIOS / "flagship_perturbed.scn"))

    def run():
        lift = lift_to_order(scenario)
        return [flow_jet(*case) for case in cases], lift.render(), lift.state.sections

    monkeypatch.setattr(algebra, "_k", pure)
    monkeypatch.setattr(vectorfields, "_k", pure)
    expected = run()
    monkeypatch.setattr(algebra, "_k", compiled)
    monkeypatch.setattr(vectorfields, "_k", compiled)
    assert run() == expected
