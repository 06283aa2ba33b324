"""Branch-tracked action integrals S(z) = int sqrt(P) dz for the quadratic
potentials P(z) = e^{4 i psi} z (z - 1) and p(t) = t^2 - mu t, plus the
closed forms used to cross-check them.

The square root of P is multivalued; every routine here carries an explicit
continuous argument of P along the contour ("sheet phase") instead of
trusting any principal branch.  Turning points (the zeros of P) are the
branch points: interior path points must keep a distance of at least
TURNING_POINT_CLEARANCE from them, while contour endpoints may sit exactly
on a turning point, in which case graded quadrature panels absorb the
integrable sqrt singularity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from .errors import PhaseTrackingError, TurningPointError
from .numerics import Contour, _leggauss

__all__ = [
    "PotentialQuadratic",
    "action",
    "action_with_phase",
    "half_line_integral_split",
    "segment_integral_closed",
]

TURNING_POINT_CLEARANCE = 1e-8
_MAX_SUBDIVISION_DEPTH = 40
_GRADING_FACTOR = 4.0
_GRADING_DEPTH = 20
_PANEL_NODES = 32


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

Z_FORM = "z"
T_FORM = "t"


@dataclass(frozen=True)
class PotentialQuadratic:
    """Quadratic potential, either e^{4 i psi} z (z - 1) or t^2 - mu t."""

    kind: str
    psi: float = 0.0
    mu: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.kind not in (Z_FORM, T_FORM):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == Z_FORM and not 0.0 <= self.psi < 2.0 * math.pi:
            raise ValueError("psi must lie in [0, 2*pi)")
        if self.kind == T_FORM and self.mu == 0:
            raise ValueError("t-form potential needs mu != 0")

    @classmethod
    def z_form(cls, psi: float) -> "PotentialQuadratic":
        return cls(Z_FORM, psi=float(psi))

    @classmethod
    def t_form(cls, mu: complex) -> "PotentialQuadratic":
        return cls(T_FORM, mu=complex(mu))

    def __call__(self, z):
        if self.kind == Z_FORM:
            return cmath.exp(4j * self.psi) * z * (z - 1.0)
        return z * z - self.mu * z

    def turning_points(self) -> List[complex]:
        if self.kind == Z_FORM:
            return [0.0 + 0.0j, 1.0 + 0.0j]
        return [0.0 + 0.0j, self.mu]

    def slope_at(self, tp: complex) -> complex:
        """dP/dz at a turning point (both zeros are simple)."""
        if self.kind == Z_FORM:
            return cmath.exp(4j * self.psi) * (2.0 * tp - 1.0)
        return 2.0 * tp - self.mu


# ---------------------------------------------------------------------------
# phase tracking
# ---------------------------------------------------------------------------

def _unwrap(raw: float, ref: float) -> float:
    return raw + 2.0 * math.pi * round((ref - raw) / (2.0 * math.pi))


def _tp_distance_to_segment(tp: complex, a: complex, b: complex) -> float:
    d = b - a
    t = ((tp - a) * d.conjugate()).real / abs(d) ** 2
    t = min(1.0, max(0.0, t))
    return abs(tp - (a + t * d))


def _check_clearance(pot: PotentialQuadratic, path: Contour):
    for a, b in path.segments():
        for tp in pot.turning_points():
            dist = _tp_distance_to_segment(tp, a, b)
            if dist >= TURNING_POINT_CLEARANCE:
                continue
            if abs(tp - a) < 1e-15 or abs(tp - b) < 1e-15:
                # endpoint sitting exactly on the turning point: the segment
                # may still not pass near the OTHER side of it
                t_proj = ((tp - a) * (b - a).conjugate()).real / abs(b - a) ** 2
                if -1e-12 <= t_proj <= 1.0 + 1e-12:
                    continue
            raise TurningPointError(
                f"path segment [{a}, {b}] passes within {dist:.2e} of turning point {tp}"
            )


def _track_phase_between(pot, z0, phase0, z1, depth=0):
    """Continuous arg P from z0 (known phase) to z1 along the straight chord.

    Subdivides until each hop changes the argument by less than pi/2.
    Returns the phase at z1.
    """
    raw = cmath.phase(pot(z1))
    cand = _unwrap(raw, phase0)
    if abs(cand - phase0) < 0.5 * math.pi:
        return cand
    if depth >= _MAX_SUBDIVISION_DEPTH:
        raise PhaseTrackingError("phase subdivision exceeded maximum depth")
    zm = 0.5 * (z0 + z1)
    pm = _track_phase_between(pot, z0, phase0, zm, depth + 1)
    return _track_phase_between(pot, zm, pm, z1, depth + 1)


# ---------------------------------------------------------------------------
# action integral
# ---------------------------------------------------------------------------

def _graded_breakpoints(a: complex, b: complex, grade_a: bool, grade_b: bool):
    """Panel breakpoints on [a, b], geometrically refined toward graded ends.

    The depth is capped so the innermost panel (and its interior quadrature
    nodes) stays representably far from the graded endpoint; a sliver of
    relative size 4^-d contributes O((4^-d)^{3/2}) of the sqrt integral, so
    even the capped depth is far below the 1e-11 accuracy target.
    """
    if grade_a and grade_b:
        mid = 0.5 * (a + b)
        return _graded_breakpoints(a, mid, True, False)[:-1] + _graded_breakpoints(mid, b, False, True)
    if grade_b:
        rev = _graded_breakpoints(b, a, True, False)
        return rev[::-1]
    if grade_a:
        seg_len = abs(b - a)
        floor = 1e5 * 2.3e-16 * max(1.0, abs(a))
        depth = int(math.log(max(seg_len / floor, 16.0)) / math.log(_GRADING_FACTOR))
        depth = max(4, min(_GRADING_DEPTH, depth))
        pts = [a + (b - a) * _GRADING_FACTOR ** float(-k) for k in range(depth, 0, -1)]
        return [a] + pts + [b]
    return [a, b]


def _action_over_segment(pot, a, b, phase_in):
    """(integral of sqrt(P), phase at b) over one straight segment."""
    tps = pot.turning_points()
    grade_a = any(abs(a - tp) < 1e-12 for tp in tps)
    grade_b = any(abs(b - tp) < 1e-12 for tp in tps)
    breaks = _graded_breakpoints(a, b, grade_a, grade_b)
    x, w = _leggauss(_PANEL_NODES)
    total = 0.0 + 0.0j
    phase = phase_in
    z_ref = a
    for p, q in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (p + q)
        half = 0.5 * (q - p)
        nodes = mid + half * x
        vals = np.empty(len(nodes), dtype=complex)
        for i, z in enumerate(nodes):
            phase = _track_phase_between(pot, z_ref, phase, z)
            vals[i] = math.sqrt(abs(pot(z))) * cmath.exp(0.5j * phase)
            z_ref = z
        total += half * np.sum(w * vals)
    if not grade_b and abs(b - z_ref) > 1e-15:
        phase = _track_phase_between(pot, z_ref, phase, b)
    # when b is a turning point the phase reported is the one-sided limit
    # along the path: arg P is constant along the straight ray into the
    # zero up to O(|z - tp|), and z_ref is within the innermost panel
    return total, phase


def action_with_phase(
    pot: PotentialQuadratic, path: Contour, initial_arg: float
) -> Tuple[complex, float]:
    """Action integral along the path plus the final tracked arg P.

    The final phase lets a caller continue the same branch on a subsequent
    leg (see the additivity property of the action).
    """
    _check_clearance(pot, path)
    total = 0.0 + 0.0j
    phase = float(initial_arg)
    for a, b in path.segments():
        part, phase = _action_over_segment(pot, a, b, phase)
        total += part
    return total, phase


def action(pot: PotentialQuadratic, path: Contour, initial_arg: float) -> complex:
    """Integral of the branch-tracked sqrt(P) along the path.

    Composite Gauss panels with geometric grading toward contour endpoints
    that sit on turning points; absolute accuracy target 1e-11.
    """
    return action_with_phase(pot, path, initial_arg)[0]


# ---------------------------------------------------------------------------
# closed forms on the vertical segment z = 1 + i t and the split real forms
# ---------------------------------------------------------------------------

def segment_integral_closed(tau: float) -> complex:
    """int_1^{1+i tau} sqrt(z (1 - z)) dz in elementary functions.

    Principal branches of the square root and of
    arcsin w = -i log(i w + sqrt(1 - w^2)) throughout; tau >= 0.
    """
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    if tau == 0.0:
        return 0.0 + 0.0j
    w = 1.0 + 2j * tau
    return (
        0.25 * w * cmath.sqrt(tau * tau - 1j * tau)
        + 0.125 * cmath.asin(w)
        - math.pi / 16.0
    )


@lru_cache(maxsize=8)
def _graded_unit_breakpoints(depth: int):
    pts = [_GRADING_FACTOR ** float(-k) for k in range(depth, 0, -1)]
    return tuple([0.0] + pts + [1.0])


def _quad_graded_zero(f, upper: float) -> float:
    """Integral of f over [0, upper] with panels graded toward 0."""
    if upper == 0.0:
        return 0.0
    x, w = _leggauss(_PANEL_NODES)
    total = 0.0
    for p, q in zip(_graded_unit_breakpoints(_GRADING_DEPTH)[:-1], _graded_unit_breakpoints(_GRADING_DEPTH)[1:]):
        a, b = p * upper, q * upper
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        total += half * float(np.sum(w * f(mid + half * x)))
    return total


def half_line_integral_split(x: float) -> Tuple[float, float]:
    """(Re, Im) of int_0^x sqrt(t^2 - i t) dt via the explicit real split.

    Re = int sqrt((t sqrt(t^2+1) + t^2)/2), Im = -int sqrt((t sqrt(t^2+1) - t^2)/2);
    the principal square root of t^2 - i t has positive real and negative
    imaginary part for t > 0.
    """
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 0.0, 0.0

    def f_re(t):
        return np.sqrt((t * np.sqrt(t * t + 1.0) + t * t) / 2.0)

    def f_im(t):
        return np.sqrt(np.maximum((t * np.sqrt(t * t + 1.0) - t * t) / 2.0, 0.0))

    return _quad_graded_zero(f_re, x), -_quad_graded_zero(f_im, x)
