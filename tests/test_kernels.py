"""Pure and compiled kernels must agree exactly; both emit canonical Fractions.

The compiled kernel is built from the committed `_kernel_c.c` with gcc into a
temporary directory and loaded by path, so the parity tests run wherever gcc and
the Python headers are present, without a `.so` next to the package.
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
from jetlift._backend import BACKEND

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


def test_backend_reports_compiled_when_available():
    assert BACKEND in ("c", "python")
