"""Exception hierarchy shared across the engine."""


class JetliftError(Exception):
    """Base class for all engine errors."""


class DimensionError(JetliftError):
    """Operands disagree on the number of variables or coordinates."""


class ClassificationError(JetliftError):
    """A field does not have the time-component classification an operation needs."""


class OrderError(JetliftError, ValueError):
    """A jet order, defect order or bracket length is below its minimum."""


class LimitError(JetliftError, ValueError):
    """An input exceeds one of the size limits in `limits`; the message names it."""


class InternalCheckError(JetliftError, AssertionError):
    """An internal cross-check of an exact result failed: a defect in the engine,
    not in the input."""


class PreconditionError(JetliftError):
    """An exact mathematical precondition failed (e.g. lower-order jets differ)."""


class WindowOverflowError(JetliftError):
    """A Laurent section left its declared degree window."""

    def __init__(self, message, required_window=None):
        super().__init__(message)
        self.required_window = required_window


class ParseError(JetliftError):
    """Input text rejected; carries 1-based line/column of the offending token."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class TransitionError(JetliftError):
    """A transition matrix is not a unit over Q[z, 1/z]: det T is not c*z^k."""


class LiftError(JetliftError):
    """A lifting scenario is malformed or outside the supported two-chart shape."""


class LiftObstructedError(JetliftError):
    """Coboundary solving failed: the obstruction class is nonzero.

    Carries the residual class (per-generator Laurent coefficients), the cokernel
    dimension within the working window, and the jet order at which lifting stopped.
    """

    def __init__(self, message, residual, cokernel_dim, order):
        super().__init__(message)
        self.residual = residual
        self.cokernel_dim = cokernel_dim
        self.order = order
