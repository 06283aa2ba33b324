"""Numerical toolkit for the half-line operator family -y'' + c x^a y:
spectra from real shooting and the complex dilation, Stokes-graph
geometry of the associated quadratic potentials, branch-tracked action
integrals, and the transcendental threshold angle bounding the
completeness sector of the a = 2/3 operator.
"""

__version__ = "0.1.0"

from .numerics import Bracket, Contour, gamma_fn
from .actions import (
    PotentialQuadratic,
    action_with_phase,
    half_line_integral_split,
    segment_integral_closed,
)
from .stokes import (
    build_stokes_graph,
    ray_crossing_report,
    ray_extremum,
    trace_stokes_curve,
)
from .threshold import (
    completeness_verdict,
    f_theta,
    f_theta_routes,
    route_equivalence,
    solve_theta0,
    verify_threshold_bounds,
)
from .spectrum import (
    OperatorSpec,
    SampledFunction,
    apply_inverse,
    bs_constant,
    complex_spectrum,
    eigenfunction,
    homogeneous_pair,
    real_spectrum,
    s_numbers,
    t_asymptotic,
)

__all__ = [
    "Bracket",
    "Contour",
    "OperatorSpec",
    "PotentialQuadratic",
    "SampledFunction",
    "action_with_phase",
    "apply_inverse",
    "bs_constant",
    "build_stokes_graph",
    "completeness_verdict",
    "complex_spectrum",
    "eigenfunction",
    "f_theta",
    "f_theta_routes",
    "gamma_fn",
    "half_line_integral_split",
    "homogeneous_pair",
    "ray_crossing_report",
    "ray_extremum",
    "real_spectrum",
    "route_equivalence",
    "s_numbers",
    "segment_integral_closed",
    "solve_theta0",
    "t_asymptotic",
    "trace_stokes_curve",
    "verify_threshold_bounds",
]
