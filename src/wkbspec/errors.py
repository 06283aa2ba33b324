"""Exception types raised by the numerical kernels."""


class NumericsError(RuntimeError):
    """Base class for numerical failures that are not plain misuse."""


class ConvergenceError(NumericsError):
    """An iterative solver exhausted its iteration budget."""


class BracketError(ValueError):
    """A root bracket is missing, invalid, or has no sign change."""


class PhaseTrackingError(NumericsError):
    """An anchor phase picks no sheet of sqrt(P) at the start of a path.

    Raised when the anchor is pi/2 or more off arg P at an ordinary start, or
    when a path reverses straight through a turning point.
    """


class TurningPointError(ValueError):
    """A path or sample point is too close to a turning point."""


class TracingError(NumericsError):
    """Stokes-curve tracing stalled: Newton on S(z) = i s did not converge."""


class WronskianError(NumericsError):
    """Wronskian of the fundamental pair degenerated or drifted."""


class SignAnomalyError(NumericsError):
    """A sign condition guaranteed by theory failed; implementation bug signal."""


class OverflowGuardError(NumericsError):
    """Renormalized amplitude exceeded the floating-point safety bound."""
