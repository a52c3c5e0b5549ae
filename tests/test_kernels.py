"""Pure and compiled kernels must agree exactly; both emit canonical Fractions.

The package runs only the pure kernel, `_kernel_py`.  The compiled kernel is the
benchmark's per-call reference: it is built from the committed `_kernel_c.c`
with gcc into a temporary directory and loaded by path, so the parity tests run
wherever gcc and the Python headers are present, without a `.so` next to the
package.  The pure kernel is also ring-generic: int term dicts go in and int term
dicts come out, which is what the iterated bracket runs on.
"""

import importlib.machinery
import importlib.util
import os
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
from jetlift import KERNEL_BACKEND

from strategies import exponent_tuples, fractions

NAME = "jetlift._kernel_c"
SOURCE = pathlib.Path(pure.__file__).with_name("_kernel_c.c")


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


def test_backend_is_python():
    assert KERNEL_BACKEND == "python"


def test_registered_compiled_kernel_is_not_picked_up():
    # loading the compiled kernel by path registers it under its module name
    # (see the fixture above); the package must still run the pure kernel
    script = """
import sys, types
stand_in = types.ModuleType("jetlift._kernel_c")
stand_in.BACKEND = "c"
def refuse(*args):
    raise AssertionError("the package called the registered kernel")
for name in ("add_terms", "neg_terms", "scale_terms", "mul_terms",
             "partial_terms", "derive_terms"):
    setattr(stand_in, name, refuse)
sys.modules["jetlift._kernel_c"] = stand_in
import jetlift
from jetlift import _kernel_py, algebra
assert jetlift.KERNEL_BACKEND == "python", jetlift.KERNEL_BACKEND
x = algebra.Poly.variable(2, 0)
y = algebra.Poly.variable(2, 1)
p = (x + y) * (x - y) * 3 - x.partial(0)
assert p == 3 * x ** 2 - 3 * y ** 2 - 1
assert algebra._kernel_py is _kernel_py
"""
    src = pathlib.Path(pure.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr


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
