"""Kernel backend for Fraction arithmetic: the compiled extension when it is
importable, else the pure-Python kernels.  Both implement the Fraction case of
one contract (see `_kernel_py`).  The jet engine, `derivation_powers`, runs on
ints and always calls the pure kernel, whichever backend this selects."""

try:
    from . import _kernel_c as kernel
except ImportError:
    from . import _kernel_py as kernel  # type: ignore[no-redef]

BACKEND: str = kernel.BACKEND
