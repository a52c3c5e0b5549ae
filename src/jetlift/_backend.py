"""The term kernel under the names the benchmark tracer reads.

Kept while `perfbench/tracer.py` and `tests/test_bench_targets.py` import it, like
`Cochain1.from_nu01`.  The package imports it on load and uses nothing in it:
`perfbench/selftest.py` requires that installing the tracer adds no module to
the package, and the tracer imports this one.  `_kernel_py` is the only kernel
the package runs."""

from . import _kernel_py as kernel
