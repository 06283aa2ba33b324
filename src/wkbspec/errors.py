"""Exception types raised by the numerical kernels."""


class NumericsError(RuntimeError):
    """Base class for numerical failures that are not plain misuse."""


class ConvergenceError(NumericsError):
    """An iterative solver exhausted its iteration budget."""


class BracketError(ValueError):
    """A root bracket is missing, invalid, or has no sign change."""


class PhaseTrackingError(NumericsError):
    """Branch-continuous argument tracking could not be refined further."""


class TurningPointError(ValueError):
    """A path or sample point is too close to a turning point."""


class TracingError(NumericsError):
    """Level-curve tracing stalled (corrector kept failing)."""


class WronskianError(NumericsError):
    """Wronskian of the fundamental pair degenerated or drifted."""


class SignAnomalyError(NumericsError):
    """A sign condition guaranteed by theory failed; implementation bug signal."""


class OverflowGuardError(NumericsError):
    """Renormalized amplitude exceeded the floating-point safety bound."""
