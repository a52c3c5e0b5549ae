"""jetlift: exact jets of vector-field flows, Lie brackets, rank strata, and
order-by-order Čech lifting of infinitesimal deformations on a two-chart curve.

All arithmetic is exact over Q.  `Poly` arithmetic and the iterated bracket run
the pure-Python term kernels of `_kernel_py`, which are generic over int and
Fraction; `jetlift.KERNEL_BACKEND` names them and is always "python".  The jet
engine runs fraction-free on Python ints with its own product loop on packed
exponent keys.

Every value is immutable.  A type whose constructor validates its input is a
slotted subclass of `algebra.Frozen`, which refuses to set or delete any
attribute.  Those compared field by field derive from `algebra.FrozenValue`,
which compares and hashes a `_key()` of their fields within one type.  `Poly`
has its own equality, under which a constant equals its scalar, and the
atlas, sheaf and distribution types compare by identity.  A record that
validates nothing and compares field by field (a report, certificate,
obstruction, lift state, step or result) is a `typing.NamedTuple`.
"""

# loaded with the package although nothing here uses it: see `_backend`
from . import _backend  # noqa: F401
from ._kernel_py import BACKEND as KERNEL_BACKEND
from .algebra import Poly, TruncSeries
from .cech import (Cochain0, Cochain1, CurveAtlas, MorphismData, Obstruction,
                   PresentedSheaf, TargetAtlas, coboundary, restrict_section,
                   solve_coboundary)
from .errors import (ClassificationError, DimensionError, InternalCheckError,
                     JetliftError, LiftError, LiftObstructedError, LimitError,
                     OrderError, ParseError, PreconditionError, TransitionError,
                     WindowOverflowError)
from .flows import (DefectReport, InvarianceReport, flow_jet, flow_series_picard,
                    jet_defect, stratum_invariance_check, verify_dj)
from .frobenius import (CounterexamplePoint, Distribution, InvolutivityCertificate,
                        NotFoundUpTo, StratumReport, involutivity_certificate,
                        rank_at, strata_sample)
from .jets import (Jet, TangentVector, jet_difference, jet_from_series,
                   jet_project, jet_to_series, jet_translate)
from .lifting import (LiftResult, LiftScenario, LiftState, defect_cochain,
                      lift_step, lift_to_order, local_jet_section)
from .scenario import parse_scenario, parse_scenario_file
from .vectorfields import (TimeClass, VectorField, apply_derivation,
                           extend_constant_flow, graph_embed, iterated_bracket,
                           lie_bracket, time_component_class)

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND", "__version__",
    "Poly", "TruncSeries",
    "Jet", "TangentVector", "jet_project", "jet_difference", "jet_translate",
    "jet_to_series", "jet_from_series",
    "VectorField", "TimeClass", "apply_derivation", "lie_bracket",
    "iterated_bracket", "extend_constant_flow", "time_component_class",
    "graph_embed",
    "flow_jet", "flow_series_picard", "jet_defect", "verify_dj", "DefectReport",
    "stratum_invariance_check", "InvarianceReport",
    "Distribution", "rank_at", "involutivity_certificate",
    "InvolutivityCertificate", "NotFoundUpTo", "CounterexamplePoint",
    "strata_sample", "StratumReport",
    "CurveAtlas", "TargetAtlas", "MorphismData", "PresentedSheaf",
    "Cochain0", "Cochain1", "Obstruction", "restrict_section", "coboundary",
    "solve_coboundary",
    "LiftScenario", "LiftState", "LiftResult", "local_jet_section",
    "defect_cochain", "lift_step", "lift_to_order",
    "parse_scenario", "parse_scenario_file",
    "JetliftError", "DimensionError", "ClassificationError", "OrderError",
    "PreconditionError", "WindowOverflowError", "ParseError", "LiftError",
    "LiftObstructedError", "InternalCheckError", "TransitionError", "LimitError",
]
