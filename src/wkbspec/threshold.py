"""The threshold function F(theta) whose unique zero theta0 in
(pi/10, pi/9) bounds the completeness sector |arg c| < pi/2 + theta0 of
the half-line operator -y'' + c x^{2/3} y.

F(theta) is a real action balance for the quadratic potential
e^{4 i psi} z (z - 1) with psi = pi/8 - 3 theta/4: the real part of the
action between the two turning points minus the action continued from
z = 1 up to the extremum point Z0 = 1 + i tan(theta) of Re S on the ray.
F is evaluated from its elementary closed form (the arcsin reduction of
the paper), so solving for theta0, scanning F and the verdicts do no
quadrature.  Two quadrature routes (split real integrals, branch-tracked
action difference) are computed independently of it and serve only as
verification: f_theta_routes, check (h) and the route-equivalence sweep
(route_equivalence, shared by the CLI verify report and the acceptance
suite).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from .actions import (
    PotentialQuadratic,
    action_with_phase,
    half_line_integral_split,
    segment_integral_closed,
)
from .errors import SignAnomalyError
from .numerics import Bracket, Contour, refine_brackets

__all__ = [
    "CompletenessVerdict",
    "ThresholdCheck",
    "ThresholdReport",
    "completeness_verdict",
    "f_theta",
    "f_theta_routes",
    "route_equivalence",
    "solve_theta0",
    "verify_threshold_bounds",
]

THETA_LO = math.pi / 10.0
THETA_HI = math.pi / 9.0
_THETA_SUP = math.pi / 6.0


@dataclass(frozen=True)
class ThresholdReport:
    theta0: float
    enclosure: Bracket
    f_lo: float
    f_hi: float
    f_samples: Tuple[Tuple[float, float], ...]
    identity_checks: Tuple["ThresholdCheck", ...]


@dataclass(frozen=True)
class ThresholdCheck:
    name: str
    passed: bool
    value: float
    bound: float
    detail: str


@dataclass(frozen=True)
class CompletenessVerdict:
    c: complex
    theta0: float
    margin: float
    complete_by_threshold: bool
    classical_sector: bool


def _psi_of(theta: float) -> float:
    return math.pi / 8.0 - 0.75 * theta


def f_theta(theta: float) -> float:
    """Threshold function on [0, pi/6), increasing, with a single zero.

    F = -sin(2 psi) (pi/8 + Im I) + cos(2 psi) Re I where psi = pi/8 - 3
    theta/4 and I = int_0^{tan theta} sqrt(t^2 - i t) dt (principal branch).
    Evaluated in closed form as Re[e^{2 i psi} i (pi/8 - J)], with J the
    elementary segment integral of actions.segment_integral_closed; the
    quadrature routes of f_theta_routes only verify it.
    """
    if not 0.0 <= theta < _THETA_SUP:
        raise ValueError(f"theta must lie in [0, pi/6), got {theta}")
    seg = segment_integral_closed(math.tan(theta))
    return (cmath.exp(2j * _psi_of(theta)) * 1j * (math.pi / 8.0 - seg)).real


def _f_split(theta: float) -> float:
    """F from the explicit real integrals by graded quadrature (verification only)."""
    psi2 = 2.0 * _psi_of(theta)
    re_i, im_i = half_line_integral_split(math.tan(theta))
    return -math.sin(psi2) * (math.pi / 8.0 + im_i) + math.cos(psi2) * re_i


def f_theta_routes(theta: float) -> Dict[str, float]:
    """F(theta) via three independent computations.

    split:  the sine/cosine combination of the explicit real integrals,
            by graded quadrature;
    action: the real action difference between the turning-point leg
            [0, 1] and the ray leg [1, Z0], both from branch-tracked
            quadrature of sqrt(P) (graded at the turning points);
    closed: f_theta, Re[e^{2 i psi} i (pi/8 - closed-form segment integral)].
    """
    out = {"closed": f_theta(theta)}  # validates theta
    psi = _psi_of(theta)
    tau = math.tan(theta)
    out["split"] = _f_split(theta)

    pot = PotentialQuadratic.z_form(psi % (2.0 * math.pi))
    anchor = 4.0 * psi + math.pi  # arg P along (0, 1)
    s_leg1, phase1 = action_with_phase(pot, Contour([0.0, 1.0]), anchor)
    if tau > 0.0:
        s_leg2, _ = action_with_phase(pot, Contour([1.0, 1.0 + 1j * tau]), phase1)
    else:
        s_leg2 = 0.0 + 0.0j
    out["action"] = (s_leg1 - s_leg2).real
    return out


def route_equivalence(n: int) -> float:
    """Worst disagreement of the split route with the other two routes of
    f_theta_routes, over n >= 2 thetas evenly spaced on [0, pi/6 - 1e-9].
    """
    if n < 2:
        raise ValueError(f"route_equivalence needs n >= 2 thetas, got {n}")
    worst = 0.0
    for k in range(n):
        r = f_theta_routes((_THETA_SUP - 1e-9) * k / (n - 1))
        worst = max(worst, abs(r["split"] - r["action"]), abs(r["split"] - r["closed"]))
    return worst


def solve_theta0(tol: float) -> ThresholdReport:
    """Refine F's bracket [pi/10, pi/9] to an enclosure at most tol wide.

    Also records F on a 100-point grid over [0, pi/6) (the monotonicity
    witness) and the verification checks.  Raises SignAnomalyError if the
    guaranteed endpoint signs fail, which would indicate an implementation
    bug rather than a mathematical possibility.
    """
    f_lo, f_hi = f_theta(THETA_LO), f_theta(THETA_HI)
    if f_lo >= 0.0 or f_hi <= 0.0:
        raise SignAnomalyError(
            f"endpoint signs violated: F(pi/10)={f_lo:.3e}, F(pi/9)={f_hi:.3e}"
        )
    (lo,), (hi,) = refine_brackets(
        np.vectorize(f_theta, otypes=[float]), [THETA_LO], [THETA_HI], [f_lo], [f_hi], tol
    )
    grid = [(_THETA_SUP - 1e-12) * k / 99.0 for k in range(100)]
    samples = tuple((t, f_theta(t)) for t in grid)
    return ThresholdReport(
        theta0=float(0.5 * (lo + hi)),
        enclosure=Bracket(float(lo), float(hi)),
        f_lo=f_lo,
        f_hi=f_hi,
        f_samples=samples,
        identity_checks=tuple(verify_threshold_bounds()),
    )


@lru_cache(maxsize=1)
def _theta0_cached() -> float:
    return solve_theta0(1e-12).theta0


def completeness_verdict(c: complex) -> CompletenessVerdict:
    """Decide |arg c| < pi/2 + theta0 for the alpha = 2/3 operator.

    classical_sector flags the smaller sector |arg c| < pi/2 where
    completeness already follows from the growth-order argument alone.
    """
    c = complex(c)
    if not cmath.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    if c == 0:
        raise ValueError("c must be nonzero")
    arg_c = abs(cmath.phase(c))
    if arg_c >= math.pi - 1e-15:
        raise ValueError("c on the negative real axis is outside the operator family")
    theta0 = _theta0_cached()
    margin = math.pi / 2.0 + theta0 - arg_c
    return CompletenessVerdict(
        c=c,
        theta0=theta0,
        margin=margin,
        complete_by_threshold=margin > 0.0,
        classical_sector=arg_c < math.pi / 2.0,
    )


# ---------------------------------------------------------------------------
# the eight closed-form verification checks
# ---------------------------------------------------------------------------

def verify_threshold_bounds() -> List[ThresholdCheck]:
    """Evaluate the elementary identities and inequalities pinning theta0.

    Every check reports the computed value and the bound it is tested
    against; all eight must pass for the threshold computation to be
    trusted.
    """
    checks: List[ThresholdCheck] = []
    sqrt5 = math.sqrt(5.0)

    # (a) exact values of sin(pi/10) and cos(pi/10)
    v = abs(math.sin(math.pi / 10.0) - (sqrt5 - 1.0) / 4.0) + abs(
        math.cos(math.pi / 10.0) - math.sqrt(10.0 + 2.0 * sqrt5) / 4.0
    )
    checks.append(
        ThresholdCheck("pentagon_sin_cos", v < 1e-14, v, 1e-14,
                       "sin(pi/10)=(sqrt5-1)/4 and cos(pi/10)=sqrt(10+2 sqrt5)/4")
    )

    # (b) tan(pi/12) = 2 - sqrt(3)
    v = abs(math.tan(math.pi / 12.0) - (2.0 - math.sqrt(3.0)))
    checks.append(
        ThresholdCheck("tan_pi_12", v < 1e-14, v, 1e-14, "tan(pi/12) = 2 - sqrt(3)")
    )

    # (c) quotient bound at theta = pi/9
    v = (2.0 - math.sqrt(3.0)) * (81.0 / (8.0 * math.sqrt(2.0 * math.pi)) - 1.0 / math.sqrt(3.0))
    checks.append(
        ThresholdCheck("quotient_pi_9", v < 1.0, v, 1.0,
                       "(2-sqrt3)(3^4/(8 sqrt(2 pi)) - 1/sqrt3) < 1")
    )

    # (d) real part of the integral at tan(pi/9) beats the power bound
    re_i, im_i = half_line_integral_split(math.tan(math.pi / 9.0))
    bound = (math.sqrt(2.0) / 3.0) * (math.pi / 9.0) ** 1.5
    checks.append(
        ThresholdCheck("re_integral_pi_9", re_i > bound, re_i, bound,
                       "Re int_0^{tan pi/9} sqrt(t^2-it) dt > (sqrt2/3)(pi/9)^{3/2}")
    )

    # (e) Im/Re ratio at tan(pi/9) below -1/sqrt(3)
    ratio = im_i / re_i
    checks.append(
        ThresholdCheck("ratio_pi_9", ratio < -1.0 / math.sqrt(3.0), ratio,
                       -1.0 / math.sqrt(3.0), "Im/Re < -tan(pi/6)")
    )

    # (f) arcsin decomposition at tau = tan(pi/10)
    tau = math.tan(math.pi / 10.0)
    w = cmath.asin(1.0 + 2j * tau)
    a_closed = math.atan(math.sqrt(sqrt5 / 2.0))
    b_closed = -0.5 * math.log(1.0 + 4.0 * sqrt5 / 5.0 - 4.0 * math.sqrt((sqrt5 + 2.0) / 10.0))
    v = abs(w.real - a_closed) + abs(w.imag - b_closed)
    ok = v < 1e-14 and 2.0 * b_closed < 1.7
    checks.append(
        ThresholdCheck("arcsin_decomposition", ok, v, 1e-14,
                       "arcsin(1+2 i tan(pi/10)) = arctan sqrt(sqrt5/2) + i B, 2B < 1.7")
    )

    # (g) the two final inequalities
    q1 = 4.0 * math.sqrt(2.0 / sqrt5) * (a_closed - 1.5 * math.pi) + 8.0 * (1.0 - 1.0 / sqrt5)
    q2 = 2.0 * b_closed * (sqrt5 + 1.0) ** 1.5
    checks.append(ThresholdCheck("final_inequality_1", q1 < -10.0, q1, -10.0,
                                 "4 sqrt(2/sqrt5)(A - 3 pi/2) + 8(1 - 1/sqrt5) < -10"))
    checks.append(ThresholdCheck("final_inequality_2", q2 < 10.0, q2, 10.0,
                                 "2 B (sqrt5 + 1)^{3/2} < 10"))

    # (h) the assembled elementary expression reproduces F(pi/10)
    algebraic = (1.0 / 8.0) * (
        (a_closed - 1.5 * math.pi) * (sqrt5 - 1.0) / 4.0
        + math.sqrt(sqrt5 / 10.0) * (3.0 - sqrt5)
        + b_closed * math.sqrt((5.0 + sqrt5) / 8.0)
    )
    v = abs(algebraic - _f_split(math.pi / 10.0))
    ok = v < 1e-12 and algebraic < 0.0
    checks.append(
        ThresholdCheck("f_pi_10_elementary", ok, v, 1e-12,
                       "elementary form of F(pi/10) matches quadrature and is negative")
    )
    return checks
