"""Kernel backend selection: the compiled extension when it is importable, else
the pure-Python kernels.  Both implement one contract (see `_kernel_py`)."""

try:
    from . import _kernel_c as kernel
except ImportError:
    from . import _kernel_py as kernel  # type: ignore[no-redef]

BACKEND: str = kernel.BACKEND
