"""Generous size limits on inputs, checked before the work that grows with them.

Each limit is far above what the tests, the shipped scenarios and the benchmark
use.  It turns an input that would run for minutes or exhaust memory (a
mistyped window, order or grid) into an immediate `LimitError` that names the
limit; the CLI reports it on one line with exit code 2.
"""

from .errors import LimitError

MAX_ORDER = 64
"""Jet order of `flow_jet`, `stratum_invariance_check` and `lift_to_order`."""

MAX_WINDOW_SPAN = 10_000
"""hi - lo of a Laurent degree window, checked by `cech.check_window`."""

MAX_GRID_POINTS = 100_000
"""Points of a `frobenius.grid_points` grid."""

MAX_SEARCH_VARS = 6
"""Variables of `frobenius.default_search_grid`, which has 7^m points."""


def check_limit(what: str, value: int, name: str, limit: int) -> None:
    """Raise LimitError naming the limit when `value` exceeds it."""
    if value > limit:
        raise LimitError(f"{what} is {value}, above the limit {name} = {limit}")
