"""Both term-kernel backends, side by side, for the traced run.

The committed `src/jetlift/_kernel_c.c` is compiled with gcc into the benchmark's
build directory (never next to the package: a `.so` under `src/jetlift/` would
switch every workload and the test suite to the compiled kernel), loaded by path
without registering it in `sys.modules`, checked against `_kernel_py` on seeded
term dicts, and timed per call.  A missing compiler or source leaves the `c`
numbers absent, which is not a failure.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import random
import shutil
import statistics
import subprocess
import sys
import sysconfig
import time
from fractions import Fraction

BATCHES = 5


def _random_terms(rng, num_vars, num_terms, degree):
    out = {}
    while len(out) < num_terms:
        exps = tuple(rng.randint(0, degree) for _ in range(num_vars))
        out[exps] = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
    return out


def build(source, build_dir):
    """Path of the compiled kernel, building it if needed; or (None, reason)."""
    if not source.is_file():
        return None, f"{source.name} is absent"
    gcc = shutil.which("gcc")
    if gcc is None:
        return None, "gcc is absent"
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    key = hashlib.sha256(source.read_bytes() + sys.version.encode()).hexdigest()[:16]
    target = build_dir / key / f"_kernel_c{suffix}"
    if not target.is_file():
        target.parent.mkdir(parents=True, exist_ok=True)
        partial = target.with_suffix(".part")
        cmd = [gcc, "-O2", "-shared", "-fPIC",
               f"-I{sysconfig.get_paths()['include']}", str(source), "-o", str(partial)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            return None, f"gcc failed: {done.stderr.strip().splitlines()[-1:]}"
        partial.replace(target)
    return target, None


def load(path):
    """Import the compiled kernel from `path` without touching `sys.modules`."""
    loader = importlib.machinery.ExtensionFileLoader("jetlift._kernel_c", str(path))
    spec = importlib.util.spec_from_file_location("jetlift._kernel_c", str(path),
                                                  loader=loader)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cases(seed):
    """Seeded inputs: (mul operands, derive (components, poly), add operands)."""
    rng = random.Random(f"jetlift-bench/kernel/{seed}")
    mul = [(_random_terms(rng, 3, n, 6), _random_terms(rng, 3, n, 6)) for n in (8, 20)]
    derive = [([_random_terms(rng, 3, 4, 3) for _ in range(3)],
               _random_terms(rng, 3, 40, 8))]
    add = [(_random_terms(rng, 3, 30, 5), _random_terms(rng, 3, 30, 5))]
    return mul, derive, add


def parity(pure, compiled, seed):
    """Names of kernel functions whose compiled output differs from the pure one."""
    mul, derive, add = cases(seed)
    bad = []
    for name, inputs in (("mul_terms", mul), ("derive_terms", derive),
                         ("add_terms", add)):
        for args in inputs:
            if getattr(pure, name)(*args) != getattr(compiled, name)(*args):
                bad.append(name)
                break
    return bad


def us_per_call(module, seed):
    """Median microseconds per call of mul_terms (20x20 terms) and derive_terms."""
    mul, derive, _ = cases(seed)
    out = {}
    for name, args, calls in (("mul_terms", mul[1], 20), ("derive_terms", derive[0], 20)):
        fn = getattr(module, name)
        batches = []
        for _ in range(BATCHES):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(*args)
            batches.append((time.perf_counter() - t0) / calls * 1e6)
        out[name] = statistics.median(batches)
    return out
