"""Generous size limits on inputs, checked before the work that grows with them.

Each limit is far above what the tests, the shipped scenarios and the benchmark
use.  It turns an input that would run for minutes or exhaust memory (a
mistyped window, order or grid) into an immediate `LimitError` that names the
limit; the CLI reports it on one line with exit code 2.
"""

from .errors import LimitError

MAX_ORDER = 64
"""Jet order of `flow_jet`, `flow_series_picard`, `stratum_invariance_check` and
`lift_to_order`, and the n of `iterated_bracket`."""

MAX_WINDOW_SPAN = 10_000
"""hi - lo of a declared window, checked on input only ([window], `cech.check_window`),
and of the exponent range that `cech.solve_coboundary` derives from T and nu."""

MAX_GRID_POINTS = 100_000
"""Points of a `frobenius.grid_points` grid."""

MAX_SEARCH_VARS = 6
"""Variables of `frobenius.default_search_grid`, which has 7^m points."""

MAX_CERTIFICATE_UNKNOWNS = 10_000
"""Unknowns s * C(d + m, m) of an involutivity certificate of degree d."""


def check_limit(what: str, value: int, name: str, limit: int) -> None:
    """Raise LimitError naming the limit when `value` exceeds it."""
    if value > limit:
        raise LimitError(f"{what} is {value}, above the limit {name} = {limit}")
